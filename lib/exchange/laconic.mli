(** Laconic-style preparation of mappings and near-core output cleanup.

    Ten Cate et al. (PVLDB 2009) show a schema mapping can be rewritten
    so that direct execution produces the core universal solution. We
    implement the practically effective portion of that idea for the
    discovered-mapping setting: normalise the tgd list before execution
    ({!prepare}) so fewer redundant triggers fire, and fold the residual
    single-fact redundancy after execution ({!sweep}) in near-linear
    time. Nulls genuinely shared between facts are left to the exact
    core engine, [Smg_verify.Icore]. *)

val prepare : Smg_cq.Dependency.tgd list -> Smg_cq.Dependency.tgd list
(** Deduplicate (up to logical equivalence), minimise each tgd's lhs
    and rhs as conjunctive queries (pinning exported universal
    variables, Skolem arguments, and Skolem terms), and order
    most-specific-first — fewest plain existentials, then largest rhs —
    so that the restricted chase's satisfaction check absorbs the
    triggers of less informative tgds instead of minting fresh nulls. *)

type coded = {
  arity : int;  (** the arena's row stride *)
  data : int array;  (** row-major interned cells, as {!Smg_relational.Colstore.data} *)
  rows : int array;  (** the live row ids, in arena order *)
}
(** One relation's interned arena, as the sweep reads it. *)

val sweep_coded : coded list -> bool array list * int
(** The sweep itself, over interned codes. Drop every row whose labelled
    nulls occur in no other live row of any given relation and which is
    subsumed by another live row of its own relation under a consistent
    null assignment. Relations are swept in list order (callers pass
    them in name order), rows in arena order, in one pass: no drop
    makes another row droppable. Returns, per relation, a survivor mask
    aligned with [rows], and the number of rows dropped. *)

val sweep :
  Smg_relational.Instance.t -> Smg_relational.Instance.t * int
(** {!sweep_coded} over a boxed instance: each relation is interned
    untracked (duplicate tuples stay distinct rows) and swept in name
    order. Each drop is the image of an endomorphism, so the swept
    instance is homomorphically equivalent to the input. Every relation
    comes back with its survivors in {e reverse} tuple order — the
    order laconic exchange output has always had, kept so that
    rendered bodies stay byte-identical. Returns the instance and the
    number of tuples dropped. *)
