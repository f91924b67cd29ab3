type tree = { root : int; edge_ids : int list; cost : float }

type solution = { trees : tree list; exact : bool }

module Budget = Smg_robust.Budget

let eps = 1e-9

(* Dreyfus–Wagner for directed Steiner arborescence.

   A(X, v) = cheapest arborescence rooted at v reaching terminal set X.
     A({t}, v)      = d(v, t)
     A(X, v), |X|>1 = min_w ( d(v, w) + min_{0 ⊂ X1 ⊂ X} A(X1, w) + A(X\X1, w) )

   Terminal sets are bitmasks over the terminal list. Reconstruction
   records, per (X, v), either a Via(w, X1) split or the direct path for
   singletons.

   The DP is exponential in the terminal count, so it runs under an
   optional budget: fuel is burnt per inner relaxation row (one check
   per n cheap operations, keeping guard overhead negligible), and when
   the budget exhausts the whole DP is abandoned in favour of the
   shortest-path-tree 2-approximation below. *)

type choice =
  | Leaf of int (* terminal node: shortest path v -> t *)
  | Via of int * int (* (w, submask): path v -> w, then split X1 / X\X1 at w *)

exception Out_of_budget

let reconstruct_with sp g a ch full root =
  ignore g;
  if a.(full).(root) = infinity then None
  else begin
    let edges = Hashtbl.create 16 in
    let add_path u v =
      match Dijkstra.path_edges sp.(u) v with
      | None -> assert false
      | Some ids -> List.iter (fun id -> Hashtbl.replace edges id ()) ids
    in
    let rec go mask v =
      match ch.(mask).(v) with
      | Leaf t -> add_path v t
      | Via (w, sub) ->
          add_path v w;
          go sub w;
          go (mask lxor sub) w
    in
    go full root;
    let edge_ids =
      Hashtbl.fold (fun id () acc -> id :: acc) edges [] |> List.sort compare
    in
    Some { root; edge_ids; cost = a.(full).(root) }
  end

(* The exact DP over precomputed all-pairs distances; [None] when the
   budget exhausts before it completes. *)
let dreyfus_wagner ?budget g sp ~terminals =
  let n = Digraph.n_nodes g in
  let terms = Array.of_list terminals in
  let k = Array.length terms in
  let burn m =
    match budget with
    | None -> ()
    | Some b -> if not (Budget.burn b m) then raise Out_of_budget
  in
  let d u v = Option.value ~default:infinity (Dijkstra.dist sp.(u) v) in
  let full = (1 lsl k) - 1 in
  (* a.(mask).(v) : cost; ch.(mask).(v) : reconstruction choice *)
  let a = Array.make_matrix (full + 1) n infinity in
  let ch = Array.make_matrix (full + 1) n (Leaf (-1)) in
  try
    for i = 0 to k - 1 do
      let mask = 1 lsl i in
      burn n;
      for v = 0 to n - 1 do
        a.(mask).(v) <- d v terms.(i);
        ch.(mask).(v) <- Leaf terms.(i)
      done
    done;
    for mask = 1 to full do
      if mask land (mask - 1) <> 0 then begin
        (* |mask| >= 2: first the best split at each node w *)
        let split_cost = Array.make n infinity in
        let split_sub = Array.make n 0 in
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          let other = mask lxor !sub in
          (* Consider each unordered partition once: sub < other. *)
          if !sub < other then begin
            burn n;
            for w = 0 to n - 1 do
              let c = a.(!sub).(w) +. a.(other).(w) in
              if c < split_cost.(w) then begin
                split_cost.(w) <- c;
                split_sub.(w) <- !sub
              end
            done
          end;
          sub := (!sub - 1) land mask
        done;
        (* Then the cheapest w reached from each v.  This is itself a
           shortest-path relaxation: a.(mask).(v) = min_w (d v w + split(w)).
           With all-pairs distances available we do it directly. *)
        for v = 0 to n - 1 do
          burn n;
          for w = 0 to n - 1 do
            if split_cost.(w) < infinity then begin
              let c = d v w +. split_cost.(w) in
              if c < a.(mask).(v) then begin
                a.(mask).(v) <- c;
                ch.(mask).(v) <- Via (w, split_sub.(w))
              end
            end
          done
        done
      end
    done;
    Some (fun root -> reconstruct_with sp g a ch full root)
  with Out_of_budget -> None

(* Degradation ladder, rung two: the union of cheapest root→terminal
   paths. Polynomial, and a classic 2-approximation of the optimal
   Steiner arborescence (each terminal's path is no longer than its
   branch in the optimum, and edges shared between paths are counted
   once). *)
let shortest_path_tree g sp ~cost ~root ~terminals =
  let edge_cost id = Option.value ~default:infinity (cost (Digraph.edge g id)) in
  let edges = Hashtbl.create 16 in
  let complete =
    List.for_all
      (fun t ->
        match Dijkstra.path_edges sp.(root) t with
        | None -> false
        | Some ids ->
            List.iter (fun id -> Hashtbl.replace edges id ()) ids;
            true)
      terminals
  in
  if not complete then None
  else begin
    let edge_ids =
      Hashtbl.fold (fun id () acc -> id :: acc) edges [] |> List.sort compare
    in
    let total =
      List.fold_left (fun acc id -> acc +. edge_cost id) 0. edge_ids
    in
    Some { root; edge_ids; cost = total }
  end

(* ---- shared all-pairs context + per-caller DP memo --------------------- *)

(* The all-pairs matrix depends only on (graph, cost) and burns no fuel,
   so it is safe to share across domains: computed once under the mutex,
   read-only afterwards. *)
type 'e context = {
  cg : 'e Digraph.t;
  ccost : 'e Digraph.edge -> float option;
  clock : Mutex.t;
  mutable csp : Dijkstra.result array option;
}

let context g ~cost = { cg = g; ccost = cost; clock = Mutex.create (); csp = None }

let context_sp ctx =
  Mutex.lock ctx.clock;
  let sp =
    match ctx.csp with
    | Some sp -> sp
    | None ->
        let sp = Dijkstra.all_pairs ctx.cg ~cost:ctx.ccost in
        ctx.csp <- Some sp;
        sp
  in
  Mutex.unlock ctx.clock;
  sp

(* The DP memo is per session, not per context: a memo hit skips the
   DP's fuel burn, so sharing it across concurrently running tasks would
   make fuel accounting depend on the steal schedule. One session per
   task keeps each task's burn a function of its own inputs only. Only
   budget-complete (exact) solutions are cached — a degraded result
   reflects how much fuel happened to remain at the time. *)
type 'e session = {
  sctx : 'e context;
  memo : (int list, int -> tree option) Hashtbl.t;
}

let session sctx = { sctx; memo = Hashtbl.create 16 }

let solve_all_in ?budget s ~terminals =
  let key = List.sort_uniq compare terminals in
  match Hashtbl.find_opt s.memo key with
  | Some reconstruct -> (reconstruct, true)
  | None -> (
      let sp = context_sp s.sctx in
      match dreyfus_wagner ?budget s.sctx.cg sp ~terminals:key with
      | Some reconstruct ->
          Hashtbl.replace s.memo key reconstruct;
          (reconstruct, true)
      | None ->
          ( (fun root ->
              shortest_path_tree s.sctx.cg sp ~cost:s.sctx.ccost ~root
                ~terminals:key),
            false ))

let solve_all ?budget g ~cost ~terminals =
  let sp = Dijkstra.all_pairs g ~cost in
  match dreyfus_wagner ?budget g sp ~terminals with
  | Some reconstruct -> (reconstruct, true)
  | None -> ((fun root -> shortest_path_tree g sp ~cost ~root ~terminals), false)

let arborescence ?budget g ~cost ~root ~terminals =
  if terminals = [] then None
  else
    let solve, _exact = solve_all ?budget g ~cost ~terminals in
    solve root

let keep_minimal candidates =
  match candidates with
  | [] -> []
  | _ ->
      let best =
        List.fold_left (fun m t -> min m t.cost) infinity candidates
      in
      List.filter (fun t -> t.cost <= best +. eps) candidates

let minimal_trees_bounded ?budget g ~cost ~roots ~terminals =
  if terminals = [] || roots = [] then { trees = []; exact = true }
  else
    let solve, exact = solve_all ?budget g ~cost ~terminals in
    { trees = keep_minimal (List.filter_map solve roots); exact }

let minimal_trees_in ?budget s ~roots ~terminals =
  if terminals = [] || roots = [] then { trees = []; exact = true }
  else
    let solve, exact = solve_all_in ?budget s ~terminals in
    { trees = keep_minimal (List.filter_map solve roots); exact }

let tree_nodes g t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.replace tbl t.root ();
  List.iter
    (fun id ->
      let e = Digraph.edge g id in
      Hashtbl.replace tbl e.src ();
      Hashtbl.replace tbl e.dst ())
    t.edge_ids;
  Hashtbl.fold (fun v () acc -> v :: acc) tbl [] |> List.sort compare
