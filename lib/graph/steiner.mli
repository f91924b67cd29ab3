(** Minimum-cost Steiner arborescences: exact Dreyfus–Wagner under an
    optional resource budget, degrading to a shortest-path-tree
    2-approximation when the budget exhausts.

    Used to compute the paper's "minimal functional trees": trees rooted
    at a node from which every terminal is reached along (cheap,
    typically functional) directed paths. Terminal counts here are small
    (≤ 10 or so), which is exactly the regime where the Dreyfus–Wagner
    dynamic program over terminal subsets is practical — but the DP is
    exponential in the terminal count, so callers facing adversarial
    inputs thread a {!Smg_robust.Budget.t} through it. *)

type tree = {
  root : int;
  edge_ids : int list;  (** edges of the arborescence, deduplicated *)
  cost : float;
}

type solution = {
  trees : tree list;
  exact : bool;
      (** [false] when the exact DP ran out of budget and the trees come
          from the shortest-path-tree approximation instead *)
}

val arborescence :
  ?budget:Smg_robust.Budget.t ->
  'e Digraph.t ->
  cost:('e Digraph.edge -> float option) ->
  root:int ->
  terminals:int list ->
  tree option
(** Minimum-cost arborescence rooted at [root] reaching every terminal,
    or [None] if some terminal is unreachable. Terminals may include the
    root; an empty terminal list is degenerate and yields [None]. With a
    [budget], exhaustion mid-DP falls back to the union of cheapest
    root→terminal paths (a 2-approximation). *)

val minimal_trees_bounded :
  ?budget:Smg_robust.Budget.t ->
  'e Digraph.t ->
  cost:('e Digraph.edge -> float option) ->
  roots:int list ->
  terminals:int list ->
  solution
(** Arborescences over every candidate root, keeping exactly the ones
    whose cost ties the minimum over the roots (within [eps = 1e-9]).
    Empty if no root reaches all terminals, or the terminal list is
    empty. [exact] records whether the Dreyfus–Wagner DP completed
    within budget; when it did not, the kept trees are shortest-path
    unions and their costs upper-bound the optimum by at most 2×. *)

type 'e context
(** Shared all-pairs shortest-path state for one (graph, cost) pair.
    The matrix is computed lazily on first use, under a mutex, and is
    read-only afterwards — safe to share between domains. It burns no
    fuel, so sharing it never perturbs budget accounting. *)

val context :
  'e Digraph.t -> cost:('e Digraph.edge -> float option) -> 'e context

type 'e session
(** A per-caller solver over a shared {!context}: memoizes exact
    Dreyfus–Wagner solutions by terminal set, so repeated solves over
    the same terminals (e.g. across candidate roots, or across the
    shrinking-subset search) pay for the DP once. Not thread-safe —
    one session per task; memo hits skip the DP's fuel burn, so a
    session shared across concurrent tasks would make fuel accounting
    schedule-dependent. Budget-degraded solutions are never cached. *)

val session : 'e context -> 'e session

val minimal_trees_in :
  ?budget:Smg_robust.Budget.t ->
  'e session ->
  roots:int list ->
  terminals:int list ->
  solution
(** {!minimal_trees_bounded} through a session's memo and its context's
    shared all-pairs matrix. *)

val tree_nodes : 'e Digraph.t -> tree -> int list
(** All nodes touched by the tree (root included), ascending. *)
