module Digraph = Smg_graph.Digraph
module Steiner = Smg_graph.Steiner
module Paths = Smg_graph.Paths
module Schema = Smg_relational.Schema
module Cml = Smg_cm.Cml
module Cardinality = Smg_cm.Cardinality
module Cm_graph = Smg_cm.Cm_graph
module Stree = Smg_semantics.Stree
module Encode = Smg_semantics.Encode
module Rewrite = Smg_semantics.Rewrite
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query
module Mapping = Smg_cq.Mapping
module Budget = Smg_robust.Budget
module Diag = Smg_robust.Diag
module Pool = Smg_parallel.Pool

let log = Logs.Src.create "smg.discover" ~doc:"semantic mapping discovery"

module Log = (val Logs.src_log log)

type side = {
  schema : Schema.t;
  cmg : Cm_graph.t;
  strees : Stree.t list;
}

let stree_of side table =
  match
    List.find_opt (fun st -> String.equal st.Stree.st_table table) side.strees
  with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "no s-tree for table %s" table)

let side ~schema ~cm strees =
  let cmg = Cm_graph.compile cm in
  let s = { schema; cmg; strees } in
  List.iter
    (fun (t : Schema.table) ->
      let st = stree_of s t.Schema.tbl_name in
      Stree.validate cmg t st)
    schema.Schema.tables;
  s

type options = {
  max_path_len : int;
  strict_partof : bool;
  allow_lossy : bool;
  max_candidates : int;
  include_partial : bool;
  use_partof : bool;
  use_shapes : bool;
  use_preselection : bool;
  outer_on_optional : bool;
}

let default_options =
  {
    max_path_len = 8;
    strict_partof = false;
    allow_lossy = true;
    max_candidates = 50;
    include_partial = true;
    use_partof = true;
    use_shapes = true;
    use_preselection = true;
    outer_on_optional = false;
  }

(* ---- lifting correspondences ------------------------------------------ *)

type lifted = {
  l_corr : Mapping.corr;
  l_snode : int;
  l_sattr : string;
  l_tnode : int;
  l_tattr : string;
}

(* Lift one correspondence to marked class nodes; the failure (unknown
   table, unmapped column) becomes data so callers choose between
   raising (legacy [lift]) and per-correspondence isolation. *)
let lift1 source target (c : Mapping.corr) =
  let s_table, s_col = c.Mapping.c_src in
  let t_table, t_col = c.Mapping.c_tgt in
  let find sd table col =
    match
      List.find_opt
        (fun st -> String.equal st.Stree.st_table table)
        sd.strees
    with
    | None -> Error (Printf.sprintf "correspondence: no s-tree for table %s" table)
    | Some st -> (
        match Stree.node_of_column st col with
        | Some (n, a) -> (
            match Stree.graph_node sd.cmg n with
            | gn -> Ok (gn, a)
            | exception Invalid_argument m | exception Failure m -> Error m)
        | None ->
            Error
              (Printf.sprintf "correspondence: column %s.%s unmapped" table col))
  in
  match (find source s_table s_col, find target t_table t_col) with
  | Ok (l_snode, l_sattr), Ok (l_tnode, l_tattr) ->
      Ok { l_corr = c; l_snode; l_sattr; l_tnode; l_tattr }
  | Error m, _ | _, Error m -> Error m

let lift source target corrs =
  List.map
    (fun c ->
      match lift1 source target c with
      | Ok l -> l
      | Error msg -> invalid_arg msg)
    corrs

let uniq xs = List.sort_uniq compare xs

(* ---- subgraph traversal ------------------------------------------------ *)

(* Traversal adjacency within an edge-id set: from each endpoint, an edge
   can be walked forward (its own id) or backward (its inverse's id). *)
let sub_adj cmg edge_ids =
  let g = Cm_graph.graph cmg in
  let adj = Hashtbl.create 16 in
  let add v entry =
    let cur = Option.value ~default:[] (Hashtbl.find_opt adj v) in
    Hashtbl.replace adj v (entry :: cur)
  in
  List.iter
    (fun id ->
      let e = Digraph.edge g id in
      add e.Digraph.src (id, e.Digraph.dst);
      match Cm_graph.inverse_edge cmg id with
      | Some inv -> add e.Digraph.dst (inv, e.Digraph.src)
      | None -> ())
    (uniq edge_ids);
  fun v -> Option.value ~default:[] (Hashtbl.find_opt adj v)

(* Path (as traversal edge ids) between two nodes inside an edge set. *)
let tree_path cmg edge_ids a b =
  if a = b then Some []
  else begin
    let adj = sub_adj cmg edge_ids in
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen a ();
    let rec bfs frontier =
      (* frontier: (node, reversed traversal) list *)
      match frontier with
      | [] -> None
      | _ -> (
          let next =
            List.concat_map
              (fun (v, path) ->
                List.filter_map
                  (fun (id, w) ->
                    if Hashtbl.mem seen w then None
                    else begin
                      Hashtbl.replace seen w ();
                      Some (w, id :: path)
                    end)
                  (adj v))
              frontier
          in
          match List.find_opt (fun (w, _) -> w = b) next with
          | Some (_, path) -> Some (List.rev path)
          | None -> bfs next)
    in
    bfs [ (a, []) ]
  end

let subgraph_nodes cmg edge_ids extra =
  let g = Cm_graph.graph cmg in
  uniq
    (extra
    @ List.concat_map
        (fun id ->
          let e = Digraph.edge g id in
          [ e.Digraph.src; e.Digraph.dst ])
        edge_ids)

(* A node of the subgraph from which all marked nodes are reachable along
   functional traversals. *)
let functional_root cmg edge_ids ~marked ~prefer =
  let g = Cm_graph.graph cmg in
  let adj = sub_adj cmg edge_ids in
  let reaches_all r =
    let seen = Hashtbl.create 16 in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter
          (fun (id, w) ->
            if Cm_graph.is_functional_edge (Digraph.edge g id).Digraph.lbl
            then go w)
          (adj v)
      end
    in
    go r;
    List.for_all (Hashtbl.mem seen) marked
  in
  let candidates =
    match prefer with
    | Some p -> p :: subgraph_nodes cmg edge_ids marked
    | None -> subgraph_nodes cmg edge_ids marked
  in
  List.find_opt reaches_all candidates

let is_partof_path cmg edge_ids =
  let g = Cm_graph.graph cmg in
  let non_isa =
    List.filter
      (fun id ->
        match (Digraph.edge g id).Digraph.lbl.Cm_graph.kind with
        | Cm_graph.Isa | Cm_graph.IsaInv -> false
        | Cm_graph.Rel _ | Cm_graph.RelInv _ | Cm_graph.Role _
        | Cm_graph.RoleInv _ | Cm_graph.HasAttr _ ->
            true)
      edge_ids
  in
  non_isa <> []
  && List.for_all
       (fun id ->
         (Digraph.edge g id).Digraph.lbl.Cm_graph.sem = Cml.PartOf)
       non_isa

let leq_shape a b =
  let open Cardinality in
  match (a, b) with
  | OneOne, (OneOne | ManyOne | OneMany | ManyMany) -> true
  | ManyOne, (ManyOne | ManyMany) -> true
  | OneMany, (OneMany | ManyMany) -> true
  | ManyMany, ManyMany -> true
  | ManyOne, (OneOne | OneMany) -> false
  | OneMany, (OneOne | ManyOne) -> false
  | ManyMany, (OneOne | ManyOne | OneMany) -> false

(* ---- candidate conceptual subgraphs ------------------------------------ *)

type cand = {
  c_nodes : int list;
  c_edges : int list;
  c_cost : float;
  c_anchor : int option;
  c_how : string;  (* which search found it, for provenance *)
  c_approx : bool;
      (* produced after a budget exhausted: the search degraded to an
         approximation (shortest-path tree / truncated enumeration) *)
}

let cand_of_tree ?(approx = false) cmg (t : Steiner.tree) =
  {
    c_nodes = Steiner.tree_nodes (Cm_graph.graph cmg) t;
    c_edges = t.Steiner.edge_ids;
    c_cost = t.Steiner.cost;
    c_anchor = Some t.Steiner.root;
    c_how = "";
    c_approx = approx;
  }

(* The Steiner solver reconstructs one optimal tree per root, but ties
   matter (Example 1.3: chairOf and deanOf are both minimal). Enumerate
   same-cost variants as unions of tied cheapest root→terminal paths and
   keep every union whose cost ties the solver's optimum. *)
let tree_variants ?budget ?(approx = false) cmg ~cost ~terminals
    (t : Steiner.tree) =
  let graph = Cm_graph.graph cmg in
  let edge_cost id =
    Option.value ~default:infinity (cost (Digraph.edge graph id))
  in
  let path_cost (p : _ Paths.path) =
    List.fold_left (fun acc id -> acc +. edge_cost id) 0. p.Paths.edge_ids
  in
  let per_terminal =
    List.map
      (fun term ->
        Paths.best_paths ?budget graph ~src:t.Steiner.root ~dst:term ~max_len:6
          ~ok:(fun e -> cost e <> None)
          ~score:path_cost
        |> fun ps -> List.filteri (fun i _ -> i < 4) ps)
      terminals
  in
  if List.exists (fun ps -> ps = []) per_terminal then
    [ cand_of_tree ~approx cmg t ]
  else begin
    let unions =
      List.fold_left
        (fun acc ps ->
          List.concat_map
            (fun partial ->
              List.map (fun (p : _ Paths.path) ->
                  List.sort_uniq compare (partial @ p.Paths.edge_ids))
                ps)
            acc)
        [ [] ] per_terminal
      |> List.sort_uniq compare
    in
    let union_cost edges =
      List.fold_left (fun acc id -> acc +. edge_cost id) 0. edges
    in
    let tied =
      List.filter (fun es -> union_cost es <= t.Steiner.cost +. 1e-6) unions
    in
    let variants =
      List.map
        (fun es ->
          {
            c_nodes = subgraph_nodes cmg es [ t.Steiner.root ];
            c_edges = es;
            c_cost = union_cost es;
            c_anchor = Some t.Steiner.root;
            c_how = "";
            c_approx = approx;
          })
        tied
    in
    let all = cand_of_tree ~approx cmg t :: variants in
    (* dedupe by edge set *)
    List.fold_left
      (fun acc c ->
        if
          List.exists
            (fun c' -> List.sort compare c'.c_edges = List.sort compare c.c_edges)
            acc
        then acc
        else c :: acc)
      [] all
    |> List.rev
  end

let class_like_nodes cmg =
  List.filter (Cm_graph.is_class_like cmg) (Digraph.nodes (Cm_graph.graph cmg))

let preselected_pred side tables =
  let ids =
    List.concat_map
      (fun t -> Stree.graph_edge_ids side.cmg (stree_of side t))
      (uniq tables)
  in
  let tbl = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace tbl id ()) ids;
  fun id -> Hashtbl.mem tbl id

(* All k-subsets of a list. *)
let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* ---- the algorithm: a stage pipeline ----------------------------------- *)

type outcome = {
  o_mappings : Mapping.t list;
  o_diags : Diag.t list;
  o_exact : bool;
}

(* Run context threaded through every stage: the shared resource budget,
   the diagnostic sink, and whether any search degraded. With
   [x_collect = None] (the legacy {!discover} entry point) faults
   propagate as exceptions, exactly as before; with a collector, each
   correspondence and each target CSG is a fault-isolation domain whose
   failure yields a diagnostic and partial results instead of aborting
   the run. *)
type ctx = {
  x_budget : Budget.t;
  x_collect : Diag.collector option;
  mutable x_degraded : bool;
  x_pool : Pool.t option;
      (* when set, the per-target-CSG searches fan out across the pool's
         domains. Each task runs under its own sub-context — sub-budget
         from [Budget.split], private collector and degradation flag —
         merged back in CSG order, so the output is byte-identical for
         any domain count (including 1). *)
}

(* Per-subject containment: in collecting mode any exception a stage
   throws — bad s-tree, rewriting failure, stray [Invalid_argument] —
   becomes an [Error] diagnostic and the stage contributes nothing. *)
let isolate ctx ~subject ~empty f =
  match ctx.x_collect with
  | None -> f ()
  | Some c -> (
      try f ()
      with exn ->
        Diag.add c (Diag.of_exn ~subject Diag.Discover exn);
        empty)

let approx_note =
  "budget exhausted during tree search; candidate comes from the \
   shortest-path / truncated-enumeration fallback"

(* Stage 1: lift correspondences to marked CM-graph nodes. In collecting
   mode an unliftable correspondence is skipped with a diagnostic. *)
let stage_lift ctx source target corrs =
  match ctx.x_collect with
  | None -> lift source target corrs
  | Some c ->
      List.filter_map
        (fun corr ->
          match lift1 source target corr with
          | Ok l -> Some l
          | Error msg ->
              Diag.add c
                (Diag.errorf
                   ~subject:(Fmt.str "%a" Mapping.pp_corr corr)
                   Diag.Discover "%s (correspondence skipped)" msg);
              None)
        corrs

let discover_core ctx ~options ~dedup ~source ~target ~corrs =
  let lifted = stage_lift ctx source target corrs in
  if lifted = [] then []
  else begin
    let marked_t = uniq (List.map (fun l -> l.l_tnode) lifted) in
    let corr_tables_t =
      uniq (List.map (fun l -> fst l.l_corr.Mapping.c_tgt) lifted)
    in
    let corr_tables_s =
      uniq (List.map (fun l -> fst l.l_corr.Mapping.c_src) lifted)
    in
    let pre_t =
      if options.use_preselection then preselected_pred target corr_tables_t
      else fun _ -> false
    in
    let pre_s =
      if options.use_preselection then preselected_pred source corr_tables_s
      else fun _ -> false
    in
    let tgt_graph = Cm_graph.graph target.cmg in
    let src_graph = Cm_graph.graph source.cmg in

    (* -- stage 2: target CSGs (per-table fault isolation) -- *)
    let case_a =
      List.filter_map
        (fun tbl ->
          isolate ctx ~subject:("table " ^ tbl) ~empty:None (fun () ->
              let st = stree_of target tbl in
              let st_nodes =
                uniq (List.map (Stree.graph_node target.cmg) st.Stree.st_nodes)
              in
              if List.for_all (fun m -> List.mem m st_nodes) marked_t then
                Some
                  {
                    c_nodes = st_nodes;
                    c_edges = Stree.forward_graph_edges target.cmg st;
                    c_cost = 0.;
                    c_anchor =
                      Option.map (Stree.graph_node target.cmg) st.Stree.st_anchor;
                    c_how =
                      Printf.sprintf "Case A: target CSG is the s-tree of %s" tbl;
                    c_approx = false;
                  }
              else None))
        corr_tables_t
    in
    let tgt_csgs =
      if case_a <> [] then case_a
      else
        let cost =
          Cm_graph.steiner_cost target.cmg ~lossy:options.allow_lossy
            ~pre_selected:pre_t ()
        in
        let sol =
          Steiner.minimal_trees_bounded ~budget:ctx.x_budget tgt_graph ~cost
            ~roots:(class_like_nodes target.cmg)
            ~terminals:marked_t
        in
        if not sol.Steiner.exact then ctx.x_degraded <- true;
        sol.Steiner.trees
        |> List.map (cand_of_tree ~approx:(not sol.Steiner.exact) target.cmg)
        |> List.map (fun c ->
               { c with c_how = "Case B: target CSG is a minimal functional tree" })
    in
    Log.debug (fun m -> m "%d target CSG candidate(s)" (List.length tgt_csgs));

    (* Source-side Steiner state shared by every target CSG: the two cost
       functions are fixed for the whole run, so their all-pairs matrices
       (fuel-free, mutex-guarded) are computed once and shared — across
       CSGs sequentially, and across domains in pooled runs. *)
    let src_cost_strict =
      Cm_graph.steiner_cost source.cmg ~lossy:false ~pre_selected:pre_s ()
    in
    let src_cost_lossy =
      Cm_graph.steiner_cost source.cmg ~lossy:true ~pre_selected:pre_s ()
    in
    let src_sctx_strict = Steiner.context src_graph ~cost:src_cost_strict in
    let src_sctx_lossy = Steiner.context src_graph ~cost:src_cost_lossy in

    (* §3.4 rewriting of each distinct (side, encoded query, required
       tables), shared by every target-CSG task of the run: source CSGs
       often encode the same query, and tasks ask for the same target
       rewriting. Rewriting spends no fuel, so the memo cannot change
       what a budgeted run returns; a rewriting that raises is not
       kept, so every task that asks raises alike. Two pooled tasks may
       both compute a missing entry; their results are equal. *)
    let rewritten = Hashtbl.create 16 in
    let rewritten_lock = Mutex.create () in

    (* -- per-target-CSG source search -- *)
    let process_tgt ctx d2 =
      (* DP memo sessions are per task: a memo hit skips the DP's fuel
         burn, so sharing them across concurrent tasks would make fuel
         accounting depend on the steal schedule. *)
      let sess_strict = Steiner.session src_sctx_strict in
      let sess_lossy = Steiner.session src_sctx_lossy in
      let relevant = List.filter (fun l -> List.mem l.l_tnode d2.c_nodes) lifted in
      if relevant = [] || not (Cm_graph.consistent_subgraph target.cmg d2.c_edges)
      then []
      else begin
        let marked_here = uniq (List.map (fun l -> l.l_tnode) relevant) in
        let root_t =
          functional_root target.cmg d2.c_edges ~marked:marked_here
            ~prefer:d2.c_anchor
        in
        let trees ~roots ~terminals ~lossy =
          if roots = [] || terminals = [] then []
          else
            let cost = if lossy then src_cost_lossy else src_cost_strict in
            let sess = if lossy then sess_lossy else sess_strict in
            let sol =
              Steiner.minimal_trees_in ~budget:ctx.x_budget sess ~roots
                ~terminals
            in
            if not sol.Steiner.exact then ctx.x_degraded <- true;
            sol.Steiner.trees
            |> List.concat_map
                 (tree_variants ~budget:ctx.x_budget
                    ~approx:(not sol.Steiner.exact) source.cmg ~cost ~terminals)
        in
        (* Source nodes corresponding to the target root (Case A.1). *)
        let a1_roots =
          match root_t with
          | Some r when not (Cm_graph.is_reified target.cmg r) ->
              uniq
                (List.filter_map
                   (fun l -> if l.l_tnode = r then Some l.l_snode else None)
                   relevant)
          | Some _ | None -> []
        in
        (* Whether some target pair is connected non-functionally: then
           non-functional source connections are admissible (§3.3). *)
        let target_pair_shape a b =
          match tree_path target.cmg d2.c_edges a b with
          | Some p -> Some (Cm_graph.path_shape target.cmg p)
          | None -> None
        in
        let tag how = List.map (fun c -> { c with c_how = how }) in
        let search terminals =
          let functional =
            let a1 = trees ~roots:a1_roots ~terminals ~lossy:false in
            if a1 <> [] then
              tag
                "Case A.1: minimal functional tree rooted at the source \
                 counterpart of the target anchor"
                a1
            else
              tag "Case A.2: minimal functional tree (anchor has no counterpart)"
                (trees ~roots:(class_like_nodes source.cmg) ~terminals
                   ~lossy:false)
          in
          let path_based =
            match terminals with
            | [ a; b ] -> (
                (* only for many-many target connections *)
                let ta =
                  List.find_opt (fun l -> l.l_snode = a) relevant
                and tb = List.find_opt (fun l -> l.l_snode = b) relevant in
                match (ta, tb) with
                | Some la, Some lb -> (
                    match target_pair_shape la.l_tnode lb.l_tnode with
                    | Some Cardinality.ManyMany ->
                        let ok (e : Cm_graph.edge_lbl Digraph.edge) =
                          Cm_graph.is_connection_edge e.Digraph.lbl
                        in
                        let score (p : _ Paths.path) =
                          float_of_int
                            ((1000 * Cm_graph.reversals source.cmg p.Paths.edge_ids)
                            + List.length p.Paths.edge_ids)
                        in
                        let before = Budget.exhausted ctx.x_budget = None in
                        let ps =
                          Paths.best_paths ~budget:ctx.x_budget src_graph
                            ~src:a ~dst:b ~max_len:options.max_path_len ~ok
                            ~score
                        in
                        let truncated =
                          before && Budget.exhausted ctx.x_budget <> None
                        in
                        if truncated || not before then
                          ctx.x_degraded <- true;
                        ps
                        |> List.map (fun (p : _ Paths.path) ->
                               {
                                 c_nodes = uniq p.Paths.nodes;
                                 c_edges = p.Paths.edge_ids;
                                 c_cost =
                                   float_of_int (List.length p.Paths.edge_ids)
                                   +. (3.
                                      *. float_of_int
                                           (Cm_graph.reversals source.cmg
                                              p.Paths.edge_ids));
                                 c_anchor = None;
                                 c_how =
                                   Printf.sprintf
                                     "§3.3: non-functional path with %d lossy \
                                      join(s) for a many-many target \
                                      connection"
                                     (Cm_graph.reversals source.cmg
                                        p.Paths.edge_ids);
                                 c_approx =
                                   Budget.exhausted ctx.x_budget <> None;
                               })
                    | Some _ | None -> [])
                | _, _ -> [])
            | _ -> []
          in
          let base = functional @ path_based in
          if base <> [] then base
          else if options.allow_lossy then
            tag "Wald–Sorenson fallback: minimal tree through lossy edges"
              (trees ~roots:(class_like_nodes source.cmg) ~terminals
                 ~lossy:true)
          else []
        in
        let terminals_full = uniq (List.map (fun l -> l.l_snode) relevant) in
        let with_coverage =
          let full = search terminals_full in
          if full <> [] then List.map (fun d1 -> (d1, relevant)) full
          else if options.include_partial && List.length terminals_full > 1
          then begin
            (* shrink the terminal set until something connects; once the
               budget is spent, stop generating ever-smaller subsets *)
            let rec shrink k =
              if k = 0 || not (Budget.ok ctx.x_budget) then []
              else
                let results =
                  List.concat_map
                    (fun sub ->
                      List.map
                        (fun d1 ->
                          ( d1,
                            List.filter
                              (fun l -> List.mem l.l_snode sub)
                              relevant ))
                        (search sub))
                    (subsets k terminals_full)
                in
                if results <> [] then results else shrink (k - 1)
            in
            shrink (List.length terminals_full - 1)
          end
          else []
        in
        (* -- filters + translation -- *)
        List.concat_map
          (fun (d1, covered) ->
            if not (Cm_graph.consistent_subgraph source.cmg d1.c_edges) then []
            else begin
              let penalty = ref (d1.c_cost +. d2.c_cost) in
              (* §3.3: a reified target anchor prefers a reified source
                 anchor of the same arity *)
              (match (d1.c_anchor, d2.c_anchor) with
              | Some a1, Some a2 -> (
                  match
                    (Cm_graph.arity source.cmg a1, Cm_graph.arity target.cmg a2)
                  with
                  | Some k1, Some k2 when k1 <> k2 -> penalty := !penalty +. 2.
                  | _, _ -> ())
              | _, _ -> ());
              let compatible =
                let pairs =
                  List.concat_map
                    (fun (la : lifted) ->
                      List.filter_map
                        (fun (lb : lifted) ->
                          if
                            la.l_snode < lb.l_snode
                            && la.l_tnode <> lb.l_tnode
                          then Some (la, lb)
                          else None)
                        covered)
                    covered
                in
                List.for_all
                  (fun (la, lb) ->
                    match
                      ( tree_path source.cmg d1.c_edges la.l_snode lb.l_snode,
                        tree_path target.cmg d2.c_edges la.l_tnode lb.l_tnode
                      )
                    with
                    | Some sp, Some tp ->
                        let s_shape = Cm_graph.path_shape source.cmg sp in
                        let t_shape = Cm_graph.path_shape target.cmg tp in
                        if options.use_shapes && not (leq_shape s_shape t_shape)
                        then false
                        else begin
                          (if
                             options.use_partof
                             && is_partof_path target.cmg tp
                             && not (is_partof_path source.cmg sp)
                           then
                             if options.strict_partof then penalty := infinity
                             else penalty := !penalty +. 5.);
                          !penalty < infinity
                        end
                    | _, _ -> true)
                  pairs
              in
              if not compatible then []
              else begin
                let outputs_of nodes attrs =
                  List.mapi
                    (fun i (n, a) -> (n, a, Printf.sprintf "v%d" i))
                    (List.combine nodes attrs)
                in
                let src_csg =
                  {
                    Encode.csg_nodes = d1.c_nodes;
                    csg_edges = d1.c_edges;
                    csg_outputs =
                      outputs_of
                        (List.map (fun l -> l.l_snode) covered)
                        (List.map (fun l -> l.l_sattr) covered);
                    csg_anchor = d1.c_anchor;
                  }
                in
                let tgt_csg =
                  {
                    Encode.csg_nodes = d2.c_nodes;
                    csg_edges = d2.c_edges;
                    csg_outputs =
                      outputs_of
                        (List.map (fun l -> l.l_tnode) covered)
                        (List.map (fun l -> l.l_tattr) covered);
                    csg_anchor = d2.c_anchor;
                  }
                in
                let rewrites sd csg required =
                  let q = Encode.query_of_csg sd.cmg csg in
                  let key = (sd == source, q, required) in
                  match
                    Mutex.protect rewritten_lock (fun () ->
                        Hashtbl.find_opt rewritten key)
                  with
                  | Some rws -> rws
                  | None ->
                      let covers =
                        Rewrite.covers ~cmg:sd.cmg ~schema:sd.schema
                          ~strees:sd.strees q
                      in
                      let rws =
                        match Rewrite.select ~required_tables:required covers with
                        | [] ->
                            (* fall back to unconstrained rewritings
                               rather than losing the candidate
                               altogether *)
                            Rewrite.select covers
                        | strict -> strict
                      in
                      Mutex.protect rewritten_lock (fun () ->
                          Hashtbl.replace rewritten key rws);
                      rws
                in
                let req_s =
                  uniq (List.map (fun l -> fst l.l_corr.Mapping.c_src) covered)
                in
                let req_t =
                  uniq (List.map (fun l -> fst l.l_corr.Mapping.c_tgt) covered)
                in
                let src_rws = rewrites source src_csg req_s in
                let tgt_rws = rewrites target tgt_csg req_t in
                (* outer-join recommendation: sibling non-disjoint classes
                   merged through ISA in the source CSG *)
                (* future-work feature (§6): a traversed source edge with
                   minimum cardinality 0 hints that the join should be an
                   outer join; opt-in via [outer_on_optional]. *)
                let optional_hint =
                  options.outer_on_optional
                  && List.exists
                       (fun id ->
                         let e = Digraph.edge src_graph id in
                         Cm_graph.is_connection_edge e.Digraph.lbl
                         && e.Digraph.lbl.Cm_graph.card.Cardinality.cmin = 0)
                       d1.c_edges
                in
                let outer =
                  let cm = Cm_graph.cm source.cmg in
                  let g = src_graph in
                  let isa_sibs =
                    List.concat_map
                      (fun id ->
                        let e = Digraph.edge g id in
                        match e.Digraph.lbl.Cm_graph.kind with
                        | Cm_graph.Isa -> [ (e.Digraph.dst, e.Digraph.src) ]
                        | Cm_graph.IsaInv -> [ (e.Digraph.src, e.Digraph.dst) ]
                        | Cm_graph.Rel _ | Cm_graph.RelInv _ | Cm_graph.Role _
                        | Cm_graph.RoleInv _ | Cm_graph.HasAttr _ ->
                            [])
                      d1.c_edges
                  in
                  List.exists
                    (fun (sup, sub1) ->
                      List.exists
                        (fun (sup', sub2) ->
                          sup = sup' && sub1 <> sub2
                          && not
                               (Cml.disjoint cm
                                  (Cm_graph.node_name source.cmg sub1)
                                  (Cm_graph.node_name source.cmg sub2)))
                        isa_sibs)
                    isa_sibs
                in
                let outer = outer || optional_hint in
                List.concat_map
                  (fun (srw : Rewrite.result) ->
                    List.map
                      (fun (trw : Rewrite.result) ->
                        let size =
                          List.length srw.rw_query.Query.body
                          + List.length trw.rw_query.Query.body
                        in
                        let uncovered =
                          List.length lifted - List.length covered
                        in
                        let describe cmg ids =
                          String.concat ", "
                            (List.map
                               (fun id -> Fmt.str "%a" (Cm_graph.pp_edge cmg) id)
                               ids)
                        in
                        let provenance =
                          (if d1.c_how = "" then [] else [ d1.c_how ])
                          @ (if d2.c_how = "" then [] else [ d2.c_how ])
                          @ [
                              (match d1.c_edges with
                              | [] ->
                                  "source connection: a single concept"
                              | es ->
                                  "source connection: "
                                  ^ describe source.cmg es);
                              (match d2.c_edges with
                              | [] -> "target connection: a single concept"
                              | es ->
                                  "target connection: "
                                  ^ describe target.cmg es);
                            ]
                          @ (if outer then
                               [
                                 "outer join recommended: merged sibling \
                                  subclasses (or optional participation)";
                               ]
                             else [])
                          @
                          if uncovered > 0 then
                            [
                              Printf.sprintf
                                "partial coverage: %d correspondence(s) left \
                                 out"
                                uncovered;
                            ]
                          else []
                        in
                        let m =
                          Mapping.make ~name:"semantic" ~outer ~provenance
                            ~score:
                              (!penalty
                              +. (0.01 *. float_of_int size)
                              +. (10. *. float_of_int uncovered))
                            ~src_query:srw.rw_query ~tgt_query:trw.rw_query
                            ~covered:(List.map (fun l -> l.l_corr) covered)
                            ()
                        in
                        if d1.c_approx || d2.c_approx then
                          Mapping.mark_approximate approx_note m
                        else m)
                      tgt_rws)
                  src_rws
              end
            end)
          with_coverage
      end
    in
    let subject d2 = "target CSG [" ^ d2.c_how ^ "]" in
    let all =
      match ctx.x_pool with
      | None ->
          List.concat_map
            (fun d2 ->
              isolate ctx ~subject:(subject d2) ~empty:[] (fun () ->
                  process_tgt ctx d2))
            tgt_csgs
      | Some pool ->
          (* Deterministic parallel fan-out: one task per target CSG,
             each under an equal fuel share of the run budget, results
             merged in CSG order. Fuel shares depend on the CSG count
             only — never on the number of domains or the steal
             schedule — so any domain count yields the same output. *)
          let csgs = Array.of_list tgt_csgs in
          let n = Array.length csgs in
          let subs =
            Array.of_list (Budget.split ctx.x_budget ~parts:n)
          in
          let tasks =
            Pool.map pool ~chunk:1
              (fun i ->
                let d2 = csgs.(i) in
                let tctx =
                  {
                    x_budget = subs.(i);
                    x_collect =
                      Option.map (fun _ -> Diag.collector ()) ctx.x_collect;
                    x_degraded = false;
                    x_pool = None;
                  }
                in
                let ms =
                  isolate tctx ~subject:(subject d2) ~empty:[] (fun () ->
                      process_tgt tctx d2)
                in
                (ms, tctx))
              (Array.init n Fun.id)
          in
          List.concat_map
            (fun (ms, tctx) ->
              Budget.absorb ctx.x_budget tctx.x_budget;
              if tctx.x_degraded then ctx.x_degraded <- true;
              (match (ctx.x_collect, tctx.x_collect) with
              | Some c, Some sub -> List.iter (Diag.add c) (Diag.diags sub)
              | _, _ -> ());
              ms)
            (Array.to_list tasks)
    in
    let deduped =
      List.fold_left
        (fun acc m ->
          match List.find_opt (Mapping.same m) acc with
          | Some existing ->
              if m.Mapping.score < existing.Mapping.score then
                m :: List.filter (fun x -> not (x == existing)) acc
              else acc
          | None -> m :: acc)
        [] all
    in
    let sorted =
      List.sort (fun a b -> compare a.Mapping.score b.Mapping.score) deduped
    in
    let ranked = List.filteri (fun i _ -> i < options.max_candidates) sorted in
    if not dedup then ranked
    else
      (* Verification pass: collapse logically equivalent candidates and
         annotate subsumed ones (lib/verify). Label by rank first so the
         dedup provenance can refer to candidates unambiguously. In
         collecting mode a verifier fault degrades to the ranked list. *)
      isolate ctx ~subject:"dedup" ~empty:ranked (fun () ->
          let labelled =
            List.mapi
              (fun i m ->
                Mapping.rename
                  (Printf.sprintf "%s#%d" m.Mapping.m_name (i + 1))
                  m)
              ranked
          in
          let report =
            Smg_verify.Mapverify.dedup ?pool:ctx.x_pool ~source:source.schema
              ~target:target.schema labelled
          in
          Log.debug (fun m -> m "%s" (Smg_verify.Mapverify.summary report));
          report.Smg_verify.Mapverify.rp_kept)
  end

(* ---- public entry points ----------------------------------------------- *)

let discover ?(options = default_options) ?(dedup = false) ?pool ~source
    ~target ~corrs () =
  let ctx =
    {
      x_budget = Budget.unlimited ();
      x_collect = None;
      x_degraded = false;
      x_pool = pool;
    }
  in
  discover_core ctx ~options ~dedup ~source ~target ~corrs

let discover_bounded ?(options = default_options) ?(dedup = false) ?budget
    ?pool ~source ~target ~corrs () =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let collector = Diag.collector () in
  let ctx =
    {
      x_budget = budget;
      x_collect = Some collector;
      x_degraded = false;
      x_pool = pool;
    }
  in
  let mappings =
    (* last-resort containment: a fault outside any per-subject isolation
       domain still yields a diagnosed, empty outcome rather than an
       escaped exception *)
    try discover_core ctx ~options ~dedup ~source ~target ~corrs
    with exn ->
      Diag.add collector (Diag.of_exn Diag.Discover exn);
      []
  in
  let n_approx = List.length (List.filter Mapping.is_approximate mappings) in
  (match Budget.exhausted budget with
  | Some reason when ctx.x_degraded ->
      Diag.add collector
        (Diag.degraded Diag.Discover reason
           (Fmt.str
              "tree search fell back to approximate candidates (%d of %d \
               candidate(s) flagged approximate)"
              n_approx (List.length mappings)))
  | Some reason ->
      Diag.add collector
        (Diag.warnf Diag.Discover
           "%s budget exhausted near the end of the search; results are \
            complete for the explored space"
           (Fmt.str "%a" Budget.pp_reason reason))
  | None -> ());
  {
    o_mappings = mappings;
    o_diags = Diag.diags collector;
    o_exact = (not ctx.x_degraded) && Budget.exhausted budget = None;
  }

(* ---- upfront validation ------------------------------------------------ *)

let lint ~source ~target ~corrs =
  let ds = ref [] in
  let push d = ds := d :: !ds in
  let side_lint label (s : side) =
    List.iter
      (fun (st : Stree.t) ->
        let tbl = st.Stree.st_table in
        match Schema.find_table s.schema tbl with
        | None ->
            push
              (Diag.errorf
                 ~subject:(label ^ " semantics " ^ tbl)
                 Diag.Validate
                 "s-tree refers to a table absent from the %s schema" label)
        | Some t -> (
            match Stree.validate_result s.cmg t st with
            | Ok () -> ()
            | Error msg ->
                push
                  (Diag.errorf
                     ~subject:(label ^ " table " ^ tbl)
                     Diag.Validate "%s" msg)))
      s.strees;
    List.iter
      (fun (t : Schema.table) ->
        if
          not
            (List.exists
               (fun (st : Stree.t) ->
                 String.equal st.Stree.st_table t.Schema.tbl_name)
               s.strees)
        then
          push
            (Diag.warnf
               ~subject:(label ^ " table " ^ t.Schema.tbl_name)
               Diag.Validate
               "table has no semantics block; correspondences on it cannot \
                be lifted"))
      s.schema.Schema.tables
  in
  side_lint "source" source;
  side_lint "target" target;
  List.iter
    (fun c ->
      match lift1 source target c with
      | Ok _ -> ()
      | Error msg ->
          push
            (Diag.errorf
               ~subject:(Fmt.str "%a" Mapping.pp_corr c)
               Diag.Validate "%s" msg))
    corrs;
  List.rev !ds
