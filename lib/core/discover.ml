module Digraph = Smg_graph.Digraph
module Steiner = Smg_graph.Steiner
module Schema = Smg_relational.Schema
module Cml = Smg_cm.Cml
module Cardinality = Smg_cm.Cardinality
module Cm_graph = Smg_cm.Cm_graph
module Stree = Smg_semantics.Stree
module Rewrite = Smg_semantics.Rewrite
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
  }

type lifted = {
  l_corr : Mapping.corr;
  l_snode : int;
  l_sattr : string;
  l_tnode : int;
  l_tattr : string;
}

(* Lift one correspondence to marked class nodes; the failure (unknown
   table, unmapped column) becomes data so callers choose between
   raising and per-correspondence isolation. *)
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

let uniq xs = List.sort_uniq compare xs

let src_table l = fst l.l_corr.Mapping.c_src
let tgt_table l = fst l.l_corr.Mapping.c_tgt

(* All k-subsets of a list. *)
let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* ---- run state --------------------------------------------------------- *)

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

type cost = Cm_graph.edge_lbl Digraph.edge -> float option

(* What every target-CSG task of a run shares. The source-side cost
   functions are fixed for the whole run, so their all-pairs Steiner
   matrices (fuel-free, mutex-guarded) are computed once and shared —
   across CSGs sequentially, and across domains in pooled runs. *)
type run = {
  r_options : options;
  r_source : side;
  r_target : side;
  r_lifted : lifted list;
  r_pre_t : int -> bool;  (* target edges pre-selected by the s-trees *)
  r_src_roots : int list;
  r_cost_strict : cost;
  r_cost_lossy : cost;
  r_sctx_strict : Cm_graph.edge_lbl Steiner.context;
  r_sctx_lossy : Cm_graph.edge_lbl Steiner.context;
  r_rewritten : (bool * Query.t * string list, Rewrite.result list) Hashtbl.t;
      (* §3.4 rewriting of each distinct (side is source, encoded query,
         required tables), shared by every target-CSG task of the run:
         source CSGs often encode the same query, and tasks ask for the
         same target rewriting. Rewriting spends no fuel, so the memo
         cannot change what a budgeted run returns; a rewriting that
         raises is not kept, so every task that asks raises alike. Two
         pooled tasks may both compute a missing entry; their results
         are equal. *)
  r_rewritten_lock : Mutex.t;
}

(* §3.2 pre-selection: the edges of the s-trees of the correspondence
   tables are free in the tree searches. *)
let preselected options side tables =
  if not options.use_preselection then fun _ -> false
  else begin
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun t ->
        List.iter
          (fun id -> Hashtbl.replace tbl id ())
          (Stree.graph_edge_ids side.cmg (stree_of side t)))
      (uniq tables);
    fun id -> Hashtbl.mem tbl id
  end

let prepare ~options ~source ~target lifted =
  let r_pre_t = preselected options target (List.map tgt_table lifted) in
  let pre_s = preselected options source (List.map src_table lifted) in
  let cost lossy =
    Cm_graph.steiner_cost source.cmg ~lossy ~pre_selected:pre_s ()
  in
  let r_cost_strict = cost false and r_cost_lossy = cost true in
  let graph = Cm_graph.graph source.cmg in
  {
    r_options = options;
    r_source = source;
    r_target = target;
    r_lifted = lifted;
    r_pre_t;
    r_src_roots = Csg.class_like_nodes source.cmg;
    r_cost_strict;
    r_cost_lossy;
    r_sctx_strict = Steiner.context graph ~cost:r_cost_strict;
    r_sctx_lossy = Steiner.context graph ~cost:r_cost_lossy;
    r_rewritten = Hashtbl.create 16;
    r_rewritten_lock = Mutex.create ();
  }

(* ---- stage 1: lift ----------------------------------------------------- *)

(* Correspondences lifted to marked CM-graph nodes. In collecting mode
   an unliftable correspondence is skipped with a diagnostic; otherwise
   it raises. *)
let lift ctx source target corrs =
  List.filter_map
    (fun corr ->
      match (lift1 source target corr, ctx.x_collect) with
      | Ok l, _ -> Some l
      | Error msg, None -> invalid_arg msg
      | Error msg, Some c ->
          Diag.add c
            (Diag.errorf
               ~subject:(Fmt.str "%a" Mapping.pp_corr corr)
               Diag.Discover "%s (correspondence skipped)" msg);
          None)
    corrs

(* ---- stage 2: target CSGs ---------------------------------------------- *)

(* Case A: the s-tree of a correspondence table that covers every marked
   target node (each table a fault-isolation domain); failing that,
   Case B: the minimal functional trees connecting them. *)
let target_csgs ctx run =
  let target = run.r_target in
  let marked = uniq (List.map (fun l -> l.l_tnode) run.r_lifted) in
  let case_a =
    List.filter_map
      (fun tbl ->
        isolate ctx ~subject:("table " ^ tbl) ~empty:None (fun () ->
            let st = stree_of target tbl in
            let st_nodes =
              uniq (List.map (Stree.graph_node target.cmg) st.Stree.st_nodes)
            in
            if List.for_all (fun m -> List.mem m st_nodes) marked then
              Some
                {
                  Csg.c_nodes = st_nodes;
                  c_edges = Stree.forward_graph_edges target.cmg st;
                  c_cost = 0.;
                  c_anchor =
                    Option.map (Stree.graph_node target.cmg) st.Stree.st_anchor;
                  c_how =
                    Printf.sprintf "Case A: target CSG is the s-tree of %s" tbl;
                  c_approx = false;
                }
            else None))
      (uniq (List.map tgt_table run.r_lifted))
  in
  if case_a <> [] then case_a
  else
    let cost =
      Cm_graph.steiner_cost target.cmg ~lossy:run.r_options.allow_lossy
        ~pre_selected:run.r_pre_t ()
    in
    let sol =
      Csg.minimal_trees ~budget:ctx.x_budget target.cmg ~cost ~terminals:marked
    in
    if not sol.Steiner.exact then ctx.x_degraded <- true;
    List.map
      (fun t ->
        {
          (Csg.of_tree ~approx:(not sol.Steiner.exact) target.cmg t) with
          c_how = "Case B: target CSG is a minimal functional tree";
        })
      sol.Steiner.trees

(* ---- stage 3: source CSGs ---------------------------------------------- *)

(* A task's Steiner sessions over the run's strict and lossy contexts.
   DP memo sessions are per task: a memo hit skips the DP's fuel burn, so
   sharing them across concurrent tasks would make fuel accounting
   depend on the steal schedule. *)
type sessions = {
  s_strict : Cm_graph.edge_lbl Steiner.session;
  s_lossy : Cm_graph.edge_lbl Steiner.session;
}

(* The minimal source trees over [roots] reaching [terminals], each with
   its same-cost variants. *)
let source_trees ctx run sessions ~roots ~terminals ~lossy ~how =
  let cost = if lossy then run.r_cost_lossy else run.r_cost_strict in
  let sess = if lossy then sessions.s_lossy else sessions.s_strict in
  let sol =
    Steiner.minimal_trees_in ~budget:ctx.x_budget sess ~roots ~terminals
  in
  if not sol.Steiner.exact then ctx.x_degraded <- true;
  List.concat_map
    (Csg.variants ~budget:ctx.x_budget ~approx:(not sol.Steiner.exact)
       run.r_source.cmg ~cost ~terminals)
    sol.Steiner.trees
  |> List.map (fun (c : Csg.t) -> { c with c_how = how })

(* §3.3: when two source terminals correspond to target nodes connected
   many-many in [d2], the minimally-lossy source paths between them. *)
let source_paths ctx run (d2 : Csg.t) relevant terminals =
  let counterpart s = List.find_opt (fun l -> l.l_snode = s) relevant in
  match terminals with
  | [ a; b ] -> (
      match (counterpart a, counterpart b) with
      | Some la, Some lb -> (
          match
            Csg.tree_path run.r_target.cmg d2.c_edges la.l_tnode lb.l_tnode
          with
          | Some tp
            when Cm_graph.path_shape run.r_target.cmg tp = Cardinality.ManyMany
            ->
              let source = run.r_source.cmg in
              let paths =
                Csg.lossy_paths ~budget:ctx.x_budget source
                  ~max_len:run.r_options.max_path_len ~src:a ~dst:b
              in
              let approx = Budget.exhausted ctx.x_budget <> None in
              if approx then ctx.x_degraded <- true;
              List.map
                (fun (c : Csg.t) ->
                  let r = Cm_graph.reversals source c.c_edges in
                  {
                    c with
                    c_cost = c.c_cost +. (3. *. float_of_int r);
                    c_how =
                      Printf.sprintf
                        "§3.3: non-functional path with %d lossy join(s) for \
                         a many-many target connection"
                        r;
                    c_approx = approx;
                  })
                paths
          | Some _ | None -> [])
      | _, _ -> [])
  | _ -> []

(* One search over a terminal set: Case A.1 (rooted at the source
   counterparts of the target anchor), else A.2 (any root), plus the
   §3.3 paths; the Wald–Sorenson lossy fallback when all come back
   empty. *)
let search ctx run sessions ~a1_roots d2 relevant terminals =
  let trees = source_trees ctx run sessions ~terminals in
  let functional =
    match
      trees ~roots:a1_roots ~lossy:false
        ~how:
          "Case A.1: minimal functional tree rooted at the source \
           counterpart of the target anchor"
    with
    | [] ->
        trees ~roots:run.r_src_roots ~lossy:false
          ~how:"Case A.2: minimal functional tree (anchor has no counterpart)"
    | a1 -> a1
  in
  match functional @ source_paths ctx run d2 relevant terminals with
  | [] when run.r_options.allow_lossy ->
      trees ~roots:run.r_src_roots ~lossy:true
        ~how:"Wald–Sorenson fallback: minimal tree through lossy edges"
  | base -> base

(* The source CSGs for one target CSG, each with the correspondences it
   covers: every relevant one if some search connects them all, else
   (with [include_partial]) the largest terminal subsets that connect. *)
let source_csgs ctx run (d2 : Csg.t) relevant =
  let sessions =
    {
      s_strict = Steiner.session run.r_sctx_strict;
      s_lossy = Steiner.session run.r_sctx_lossy;
    }
  in
  let marked = uniq (List.map (fun l -> l.l_tnode) relevant) in
  let a1_roots =
    match
      Csg.functional_root run.r_target.cmg d2.c_edges ~marked
        ~prefer:d2.c_anchor
    with
    | Some r when not (Cm_graph.is_reified run.r_target.cmg r) ->
        uniq
          (List.filter_map
             (fun l -> if l.l_tnode = r then Some l.l_snode else None)
             relevant)
    | Some _ | None -> []
  in
  let search = search ctx run sessions ~a1_roots d2 relevant in
  let terminals = uniq (List.map (fun l -> l.l_snode) relevant) in
  match search terminals with
  | _ :: _ as full -> List.map (fun d1 -> (d1, relevant)) full
  | [] when run.r_options.include_partial && List.length terminals > 1 ->
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
                      List.filter (fun l -> List.mem l.l_snode sub) relevant ))
                  (search sub))
              (subsets k terminals)
          in
          if results <> [] then results else shrink (k - 1)
      in
      shrink (List.length terminals - 1)
  | [] -> []

(* ---- stage 4: compatibility -------------------------------------------- *)

(* A consistent source CSG's penalty against [d2]: both costs, 2 more
   when a reified target anchor meets a source anchor of another arity
   (§3.3), then the pairwise shape and partOf checks. [None] rejects. *)
let compatible run (d1 : Csg.t) (d2 : Csg.t) covered =
  let o = run.r_options and source = run.r_source.cmg in
  if not (Cm_graph.consistent_subgraph source d1.c_edges) then None
  else
    let penalty = d1.c_cost +. d2.c_cost in
    let penalty =
      match (d1.c_anchor, d2.c_anchor) with
      | Some a1, Some a2 -> (
          match
            (Cm_graph.arity source a1, Cm_graph.arity run.r_target.cmg a2)
          with
          | Some k1, Some k2 when k1 <> k2 -> penalty +. 2.
          | _, _ -> penalty)
      | _, _ -> penalty
    in
    Csg.compatible ~use_shapes:o.use_shapes ~use_partof:o.use_partof
      ~strict_partof:o.strict_partof ~source ~target:run.r_target.cmg d1 d2
      ~penalty
      (List.map (fun l -> (l.l_snode, l.l_tnode)) covered)

(* ---- stage 5: translation ---------------------------------------------- *)

(* The §3.4 rewritings of an encoded CSG over one side's s-tree views,
   through the run's memo. *)
let rewrites run sd q required =
  let key = (sd == run.r_source, q, required) in
  let lock = run.r_rewritten_lock in
  match Mutex.protect lock (fun () -> Hashtbl.find_opt run.r_rewritten key) with
  | Some rws -> rws
  | None ->
      let covers =
        Rewrite.covers ~cmg:sd.cmg ~schema:sd.schema ~strees:sd.strees q
      in
      let rws =
        match Rewrite.select ~required_tables:required covers with
        | [] ->
            (* fall back to unconstrained rewritings rather than losing
               the candidate altogether *)
            Rewrite.select covers
        | strict -> strict
      in
      Mutex.protect lock (fun () -> Hashtbl.replace run.r_rewritten key rws);
      rws

(* Outer-join recommendation: the source CSG merges sibling subclasses
   that are not declared disjoint through ISA. *)
let merges_siblings source (d1 : Csg.t) =
  let g = Cm_graph.graph source.cmg in
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
  let cm = Cm_graph.cm source.cmg in
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

(* Why this mapping: the searches that found both CSGs, their edges,
   the outer-join recommendation and any correspondences left out. *)
let provenance run (d1 : Csg.t) (d2 : Csg.t) ~outer ~uncovered =
  let connection label sd (d : Csg.t) =
    match d.c_edges with
    | [] -> label ^ " connection: a single concept"
    | es ->
        label ^ " connection: "
        ^ String.concat ", "
            (List.map (fun id -> Fmt.str "%a" (Cm_graph.pp_edge sd.cmg) id) es)
  in
  (if d1.c_how = "" then [] else [ d1.c_how ])
  @ (if d2.c_how = "" then [] else [ d2.c_how ])
  @ [
      connection "source" run.r_source d1; connection "target" run.r_target d2;
    ]
  @ (if outer then
       [
         "outer join recommended: merged sibling subclasses";
       ]
     else [])
  @
  if uncovered > 0 then
    [
      Printf.sprintf "partial coverage: %d correspondence(s) left out"
        uncovered;
    ]
  else []

let approx_note =
  "budget exhausted during tree search; candidate comes from the \
   shortest-path / truncated-enumeration fallback"

(* A compatible CSG pair translated through the s-trees (§3.4): one
   candidate per (source rewriting, target rewriting). *)
let translate run (d1 : Csg.t) (d2 : Csg.t) covered penalty =
  let source = run.r_source and target = run.r_target in
  let req_s = uniq (List.map src_table covered) in
  let req_t = uniq (List.map tgt_table covered) in
  let src_rws =
    rewrites run source
      (Csg.query source.cmg d1
         (List.map (fun l -> (l.l_snode, l.l_sattr)) covered))
      req_s
  in
  let tgt_rws =
    rewrites run target
      (Csg.query target.cmg d2
         (List.map (fun l -> (l.l_tnode, l.l_tattr)) covered))
      req_t
  in
  let outer = merges_siblings source d1 in
  let uncovered = List.length run.r_lifted - List.length covered in
  let provenance = provenance run d1 d2 ~outer ~uncovered in
  List.concat_map
    (fun (srw : Rewrite.result) ->
      List.map
        (fun (trw : Rewrite.result) ->
          let size =
            List.length srw.rw_query.Query.body
            + List.length trw.rw_query.Query.body
          in
          let m =
            Mapping.make ~name:"semantic" ~outer ~provenance
              ~score:
                (penalty
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

(* Stages 3–5 for one target CSG. *)
let per_target ctx run (d2 : Csg.t) =
  let relevant =
    List.filter (fun l -> List.mem l.l_tnode d2.c_nodes) run.r_lifted
  in
  if
    relevant = []
    || not (Cm_graph.consistent_subgraph run.r_target.cmg d2.c_edges)
  then []
  else
    List.concat_map
      (fun (d1, covered) ->
        match compatible run d1 d2 covered with
        | None -> []
        | Some penalty -> translate run d1 d2 covered penalty)
      (source_csgs ctx run d2 relevant)

(* Every target CSG through {!per_target}, each a fault-isolation
   domain. With a pool: one task per target CSG, each under an equal
   fuel share of the run budget, results merged in CSG order. Fuel
   shares depend on the CSG count only — never on the number of domains
   or the steal schedule — so any domain count yields the same output. *)
let fan_out ctx run tgt_csgs =
  let subject (d2 : Csg.t) = "target CSG [" ^ d2.c_how ^ "]" in
  match ctx.x_pool with
  | None ->
      List.concat_map
        (fun d2 ->
          isolate ctx ~subject:(subject d2) ~empty:[] (fun () ->
              per_target ctx run d2))
        tgt_csgs
  | Some pool ->
      let csgs = Array.of_list tgt_csgs in
      let n = Array.length csgs in
      let subs = Array.of_list (Budget.split ctx.x_budget ~parts:n) in
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
                  per_target tctx run d2)
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

(* ---- stage 6: rank ----------------------------------------------------- *)

(* Keep the best-scored of each {!Mapping.same} group, best first, up to
   [max_candidates]. *)
let rank options all =
  List.fold_left
    (fun acc m ->
      match List.find_opt (Mapping.same m) acc with
      | Some existing ->
          if m.Mapping.score < existing.Mapping.score then
            m :: List.filter (fun x -> not (x == existing)) acc
          else acc
      | None -> m :: acc)
    [] all
  |> List.sort (fun a b -> compare a.Mapping.score b.Mapping.score)
  |> List.filteri (fun i _ -> i < options.max_candidates)

(* ---- stage 7: verification --------------------------------------------- *)

(* Collapse logically equivalent candidates and annotate subsumed ones
   (lib/verify). Label by rank first so the dedup provenance can refer
   to candidates unambiguously. In collecting mode a verifier fault
   degrades to the ranked list. *)
let verify ctx ~source ~target ranked =
  isolate ctx ~subject:"dedup" ~empty:ranked (fun () ->
      let labelled =
        List.mapi
          (fun i m ->
            Mapping.rename (Printf.sprintf "%s#%d" m.Mapping.m_name (i + 1)) m)
          ranked
      in
      let report =
        Smg_verify.Mapverify.dedup ?pool:ctx.x_pool ~source:source.schema
          ~target:target.schema labelled
      in
      Log.debug (fun m -> m "%s" (Smg_verify.Mapverify.summary report));
      report.Smg_verify.Mapverify.rp_kept)

let discover_core ctx ~options ~dedup ~source ~target ~corrs =
  match lift ctx source target corrs with
  | [] -> []
  | lifted ->
      let run = prepare ~options ~source ~target lifted in
      let tgt_csgs = target_csgs ctx run in
      Log.debug (fun m ->
          m "%d target CSG candidate(s)" (List.length tgt_csgs));
      let ranked = rank options (fan_out ctx run tgt_csgs) in
      if dedup then verify ctx ~source ~target ranked else ranked

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
