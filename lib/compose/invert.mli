(** Reversal-based quasi-inverses of s-t tgd sets.

    The reversal of [∀x̄ φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)] is
    [∀x̄,z̄ ψ(x̄,z̄) → ∃ȳ φ(x̄,ȳ)]: exported data is migrated back,
    with the variables the original mapping never exported returning
    as existentials.

    The reversal is not always a recovery (Arenas, Pérez, Riveros,
    "The recovery of a schema mapping"). When two tgds write the same
    target table, as A(x) → R(x) and B(x) → R(x), their reversals
    R(x) → A(x) and R(x) → B(x) send the source {A(1)} to
    {A(1), B(1)}, which does not map back into it. What
    [compose --invert --verify] checks is only that executing the
    mapping composed with its reversal in one shot is
    homomorphically equivalent to executing the two in sequence. This
    is not the full quasi-inverse construction: no disjunction, no
    inequality side-conditions. *)

val reverse_tgd : Smg_cq.Dependency.tgd -> Smg_cq.Dependency.tgd
(** Swap premise and conclusion, canonically renaming all variables
    (Skolem-named variables become ordinary ones — the inverse treats
    invented values as opaque). The result is named [inv:<name>]. *)

val quasi_inverse :
  ?prime:string -> Smg_cq.Dependency.tgd list -> Smg_cq.Dependency.tgd list
(** Reverse every tgd and deduplicate. [?prime] appends the given
    suffix to every conclusion predicate, targeting the primed schema
    copy from {!prime_schema} — chained pipelines (A → B → A′) need
    the round-trip target to be a distinct schema. *)

val prime_schema : suffix:string -> Smg_relational.Schema.t -> Smg_relational.Schema.t
(** A copy of the schema with every table (and RIC endpoint) renamed
    by the suffix. *)
