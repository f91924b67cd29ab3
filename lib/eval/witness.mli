(** Instance-level witnesses: empirical confirmation that a discovered
    mapping and the benchmark mapping produce the same data.

    Symbolic equivalence ({!Smg_cq.Mapping.same_under}) is checked up to
    a chase bound; this module complements it by *executing* both
    mappings' source queries over a synthesized source instance that
    satisfies the schema's keys and RICs, and comparing the answer sets.
    Disagreement on a witness instance is definitive evidence that two
    mappings are different; agreement on generated instances is strong
    (not conclusive) evidence they coincide. *)

val populate :
  ?rows_per_table:int ->
  ?seed:int ->
  Smg_relational.Schema.t ->
  Smg_relational.Instance.t
(** Generate an instance: each table is seeded with rows of pooled
    constants (so joins have matches), then dangling references are
    repaired round by round — each missing referenced row is inserted
    with labelled nulls outside the referenced columns, probing a hash
    table per RIC — so referential integrity holds. The repair stops
    after 10 rounds, or once the instance holds {!repair_cap} times
    its base rows: a cycle of RICs that multiplies rows each round is
    then left with dangling references instead of growing without
    bound. The result is a deterministic function of [seed] (default
    42); keys hold because each row's key is distinct by construction. *)

val repair_cap : int
(** The repair's size bound, as a multiple of the base rows. *)

val populate_cached :
  ?rows_per_table:int ->
  ?seed:int ->
  Smg_relational.Schema.t ->
  Smg_relational.Instance.t
(** {!populate}, memoized process-wide by (schema digest, rows, seed)
    under a mutex — the CLI witness path and the HTTP registry share
    one generated instance per key instead of rebuilding it every
    invocation. Callers must not mutate the result. *)

type verdict = {
  w_case : string;
  w_agree : bool;       (** discovered answers = benchmark answers *)
  w_discovered : int;   (** answer-set size of the discovered mapping *)
  w_benchmark : int;
}

val check_case :
  ?rows_per_table:int ->
  ?seed:int ->
  Scenario.t ->
  Scenario.case ->
  verdict option
(** Execute the *best hit* among the semantic method's candidates (the
    one matching the benchmark) and the benchmark itself over a
    generated source instance; [None] when the method produced no hit
    for this case. *)

val check_scenario : ?seed:int -> Scenario.t -> verdict list
val pp_verdict : Format.formatter -> verdict -> unit
