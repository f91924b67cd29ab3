(** Rewriting CM-level conjunctive queries into table-level queries
    (§3.4): the inverse-rule method with key-based merging of Skolem
    terms.

    Every table's s-tree acts as a LAV view. A rewriting covers each CM
    atom of the input query by (a fragment of) some view instance;
    object variables shared between view instances are joined through
    the columns that identify them ([Stree.id_map]) — the "merging of
    Skolem functions through key information". Covers where a shared
    object variable is not identifiable in some instance are unsound
    and rejected.

    The output keeps only maximal rewritings: candidates strictly
    contained in another candidate are dropped (the [q'₂ ⊆ q'₃]
    elimination of Example 3.4), and equivalent duplicates are merged. *)

type result = {
  rw_query : Smg_cq.Query.t;     (** over table predicates, minimized *)
  rw_tables : string list;       (** tables mentioned, deduplicated *)
}

val rewrite :
  cmg:Smg_cm.Cm_graph.t ->
  schema:Smg_relational.Schema.t ->
  strees:Stree.t list ->
  ?max_covers:int ->
  ?required_tables:string list ->
  Smg_cq.Query.t ->
  result list
(** Rewrite a query produced by {!Encode.query_of_csg} /
    {!Encode.view_of_stree} naming conventions. [max_covers] bounds the
    raw cover enumeration (default 800) before filtering.
    [required_tables] lists tables every kept rewriting must mention
    (the correspondence-linked tables of §3.4) — this filter applies
    *before* the maximal-containment pruning, as in the paper's
    elimination order. Atoms whose predicate does not parse as a CM
    predicate raise [Invalid_argument]. It is {!select} applied to
    {!covers}. *)

type covers
(** The raw rewritings of one query: every cover of its atoms by view
    instances, structurally distinct, before any filtering. It also
    holds the work every selection shares, done lazily and at most once
    per cover: key merging, and minimization of each distinct merged
    query. A [covers] value is not safe to select from concurrently. *)

val covers :
  cmg:Smg_cm.Cm_graph.t ->
  schema:Smg_relational.Schema.t ->
  strees:Stree.t list ->
  ?max_covers:int ->
  Smg_cq.Query.t ->
  covers
(** The search half of {!rewrite}. It does not depend on the required
    tables, so one search can serve several {!select}s — discovery
    relaxes a strict selection that keeps nothing. *)

val select : ?required_tables:string list -> covers -> result list
(** The filtering half of {!rewrite}: the required-table filter, key
    merging, minimization and the maximal-containment pruning. A cover
    structurally equal to an earlier one, and a cover whose merged
    query equals an earlier one's, add nothing; the survivors and their
    order are what filtering every cover would keep. *)
