(** The semantic mapping-discovery algorithm (§3 of the paper).

    Given a source and a target side — each a relational schema, a CM
    graph, and per-table s-trees — and a set of column correspondences,
    the algorithm:

    + lifts the correspondences to marked class nodes in both CM graphs;
    + determines target conceptual subgraphs (CSGs): the s-tree of a
      single covering table (Case A) or minimal functional trees
      connecting the marked target nodes (Case B);
    + finds "semantically similar" source CSGs: minimal functional
      Steiner trees rooted at the node corresponding to the target
      anchor (Case A.1), minimal functional trees over all roots
      (Case A.2), minimally-lossy non-functional paths for many-many
      target connections (§3.3 / Example 3.2), with partial coverage
      and correspondence splitting as a fallback;
    + filters pairs by disjointness consistency, cardinality-shape
      compatibility, and [partOf] category (Example 1.3);
    + translates both CSGs into table-level queries through the s-tree
      views (§3.4) and emits ranked GLAV mapping candidates. *)

type side = {
  schema : Smg_relational.Schema.t;
  cmg : Smg_cm.Cm_graph.t;
  strees : Smg_semantics.Stree.t list;
}

val side :
  schema:Smg_relational.Schema.t ->
  cm:Smg_cm.Cml.t ->
  Smg_semantics.Stree.t list ->
  side
(** Compiles the CM and validates every s-tree against it and its table.
    @raise Invalid_argument when a table lacks an s-tree or validation
    fails. *)

type options = {
  max_path_len : int;      (** bound for non-functional path search *)
  strict_partof : bool;    (** drop (rather than downgrade) partOf mismatches *)
  allow_lossy : bool;      (** Wald–Sorenson fallback through non-functional edges *)
  max_candidates : int;
  include_partial : bool;  (** emit split-coverage candidates when full coverage fails *)
  use_partof : bool;       (** ablation: partOf category filtering at all *)
  use_shapes : bool;       (** ablation: cardinality-shape compatibility *)
  use_preselection : bool; (** ablation: pre-selected s-tree edges are free *)
}

val default_options : options

val discover :
  ?options:options ->
  ?dedup:bool ->
  ?pool:Smg_parallel.Pool.t ->
  source:side ->
  target:side ->
  corrs:Smg_cq.Mapping.corr list ->
  unit ->
  Smg_cq.Mapping.t list
(** Ranked candidate mappings (best first), deduplicated with
    {!Smg_cq.Mapping.same}. With [~dedup:true] (default false) a
    verification pass ({!Smg_verify.Mapverify.dedup}) additionally
    collapses logically equivalent candidates — keeping the best-ranked
    representative of each class, renamed ["semantic#rank"] and
    annotated via provenance — and marks candidates strictly implied by
    a better-ranked one as subsumed.

    Legacy entry point: unbudgeted, and faults (bad s-tree, unliftable
    correspondence) propagate as exceptions. Prefer {!discover_bounded}
    for robust pipelines.

    With a [pool], the per-target-CSG searches and the dedup pass's
    implication checks fan out across its domains. The ranked output is
    byte-identical for every domain count (including 1): tasks are keyed
    by CSG rank and merged in rank order, and each task receives an
    equal fuel share via {!Smg_robust.Budget.split}, so fuel accounting
    never depends on the steal schedule. (A pooled run may differ from a
    pool-less run of the same inputs under a fuel budget — the fuel is
    pre-split rather than consumed first-come-first-served.) *)

type outcome = {
  o_mappings : Smg_cq.Mapping.t list;
      (** ranked candidates; degraded ones are flagged via
          {!Smg_cq.Mapping.is_approximate} *)
  o_diags : Smg_robust.Diag.t list;
      (** per-stage diagnostics, in emission order *)
  o_exact : bool;
      (** [false] when any search exhausted the budget and fell back to
          an approximation, or the run ended on an exhausted budget *)
}

val discover_bounded :
  ?options:options ->
  ?dedup:bool ->
  ?budget:Smg_robust.Budget.t ->
  ?pool:Smg_parallel.Pool.t ->
  source:side ->
  target:side ->
  corrs:Smg_cq.Mapping.corr list ->
  unit ->
  outcome
(** Resource-bounded, never-raising {!discover}. The budget's fuel and
    deadline are threaded through the Steiner DP, path enumeration, and
    terminal-subset shrinking; when it runs out the exact searches
    degrade to shortest-path-tree / truncated-enumeration fallbacks and
    the affected candidates are marked approximate in their provenance.
    Every correspondence and every target CSG is a fault-isolation
    domain: an exception there becomes an [Error] diagnostic plus
    partial results, never an escaped exception. *)

val lint :
  source:side ->
  target:side ->
  corrs:Smg_cq.Mapping.corr list ->
  Smg_robust.Diag.t list
(** Upfront validation pass, run without touching the search: every
    s-tree is checked against its CM and table ([Validate] errors),
    tables without semantics get a warning, and each correspondence is
    test-lifted ([Validate] error when it cannot be). An empty result
    means {!discover} will not trip over its inputs. *)
