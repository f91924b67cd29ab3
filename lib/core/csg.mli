(** Conceptual subgraphs (CSGs) and the CM-graph rules of §3 that both
    discoveries apply to them: the relational algorithm ({!Discover})
    and the §6 CM-to-CM variant ({!Cm_discover}). Everything here works
    on a compiled CM graph alone — no tables, s-trees or rewriting. *)

type t = {
  c_nodes : int list;  (** class-like nodes, ascending *)
  c_edges : int list;  (** CM-graph edge ids *)
  c_cost : float;
  c_anchor : int option;  (** the tree's root, when there is one *)
  c_how : string;  (** which search found it, for provenance *)
  c_approx : bool;
      (** produced after a budget exhausted: the search degraded to an
          approximation (shortest-path tree / truncated enumeration) *)
}

val of_tree : ?approx:bool -> Smg_cm.Cm_graph.t -> Smg_graph.Steiner.tree -> t
(** The tree's nodes and edges, its cost, anchored at its root. *)

val class_like_nodes : Smg_cm.Cm_graph.t -> int list
(** Every class and reified-relationship node: the roots a rootless
    tree search tries. *)

val minimal_trees :
  ?budget:Smg_robust.Budget.t ->
  Smg_cm.Cm_graph.t ->
  cost:(Smg_cm.Cm_graph.edge_lbl Smg_graph.Digraph.edge -> float option) ->
  terminals:int list ->
  Smg_graph.Steiner.solution
(** Minimal Steiner trees reaching every terminal, over every
    class-like root (Case B, Case A.2). *)

val variants :
  ?budget:Smg_robust.Budget.t ->
  ?approx:bool ->
  Smg_cm.Cm_graph.t ->
  cost:(Smg_cm.Cm_graph.edge_lbl Smg_graph.Digraph.edge -> float option) ->
  terminals:int list ->
  Smg_graph.Steiner.tree ->
  t list
(** The tree and its same-cost variants. The Steiner solver rebuilds one
    optimal tree per root, but ties matter (Example 1.3: chairOf and
    deanOf are both minimal): unions of up to four cheapest
    root→terminal paths per terminal that tie the tree's cost are kept
    too, deduplicated by edge set. *)

val lossy_paths :
  ?budget:Smg_robust.Budget.t ->
  Smg_cm.Cm_graph.t ->
  max_len:int ->
  src:int ->
  dst:int ->
  t list
(** §3.3: the connection paths between two nodes with the fewest
    functional-direction reversals, ties broken by length. Each costs
    its length and has no anchor. *)

val tree_path : Smg_cm.Cm_graph.t -> int list -> int -> int -> int list option
(** [tree_path cmg edges a b] is the path from [a] to [b] inside the
    edge set, as traversal edge ids (an edge walked backwards is its
    inverse). *)

val functional_root :
  Smg_cm.Cm_graph.t ->
  int list ->
  marked:int list ->
  prefer:int option ->
  int option
(** A node of the subgraph (trying [prefer] first) from which every
    marked node is reachable along functional traversals. *)

val is_partof_path : Smg_cm.Cm_graph.t -> int list -> bool
(** The path has a non-ISA edge and all its non-ISA edges are
    [partOf]. *)

val leq_shape : Smg_cm.Cardinality.shape -> Smg_cm.Cardinality.shape -> bool
(** Cardinality-shape compatibility: a source connection may be at most
    as "many" as the target one on each end. *)

val compatible :
  ?use_shapes:bool ->
  ?use_partof:bool ->
  strict_partof:bool ->
  source:Smg_cm.Cm_graph.t ->
  target:Smg_cm.Cm_graph.t ->
  t ->
  t ->
  penalty:float ->
  (int * int) list ->
  float option
(** [compatible ~source ~target d1 d2 ~penalty covered] checks a source
    CSG [d1] against a target CSG [d2], given the covered (source node,
    target node) pairs in order. Every two covered pairs whose source
    nodes ascend and whose target nodes differ must connect with
    compatible shapes ({!leq_shape}; skipped without [use_shapes]). A
    [partOf] target connection matched by a non-[partOf] source one
    rejects under [strict_partof] and otherwise adds 5 to [penalty]
    (skipped without [use_partof]). [None] rejects the pair; [Some p] is
    the penalty after every downgrade. Both flags default to [true]. *)

val query : Smg_cm.Cm_graph.t -> t -> (int * string) list -> Smg_cq.Query.t
(** The CSG encoded over CM predicates (§3.4's first step): one answer
    variable [v<i>] per (node, attribute) output, in order. *)
