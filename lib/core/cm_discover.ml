module Steiner = Smg_graph.Steiner
module Cm_graph = Smg_cm.Cm_graph
module Stree = Smg_semantics.Stree
module Query = Smg_cq.Query

type corr = { cc_src : string * string; cc_tgt : string * string }

let corr ~src ~tgt = { cc_src = src; cc_tgt = tgt }

type result = {
  src_query : Query.t;
  tgt_query : Query.t;
  covered : corr list;
  score : float;
}

let max_path_len = 8
let max_candidates = 20

type lifted = {
  l_corr : corr;
  l_snode : int;
  l_sattr : string;
  l_tnode : int;
  l_tattr : string;
}

let lift cmg_s cmg_t corrs =
  let resolve cmg (cls, attr) =
    let node = Cm_graph.class_node_exn cmg cls in
    match Stree.declaring_class (Cm_graph.cm cmg) cls attr with
    | Some _ -> node
    | None ->
        invalid_arg
          (Printf.sprintf "cm corr: class %s has no attribute %s" cls attr)
  in
  List.map
    (fun c ->
      {
        l_corr = c;
        l_snode = resolve cmg_s c.cc_src;
        l_sattr = snd c.cc_src;
        l_tnode = resolve cmg_t c.cc_tgt;
        l_tattr = snd c.cc_tgt;
      })
    corrs

(* One side's candidate CSGs: the minimal trees over every class-like
   root, lossy edges allowed and nothing pre-selected (there are no
   tables), plus, for two marked nodes, the minimally-lossy paths
   between them — a many-many connection can be a path. *)
let csgs cmg marked =
  let marked = List.sort_uniq compare marked in
  let cost =
    Cm_graph.steiner_cost cmg ~lossy:true ~pre_selected:(fun _ -> false) ()
  in
  List.map (Csg.of_tree cmg)
    (Csg.minimal_trees cmg ~cost ~terminals:marked).Steiner.trees
  @
  match marked with
  | [ a; b ] -> Csg.lossy_paths cmg ~max_len:max_path_len ~src:a ~dst:b
  | _ -> []

(* A source CSG [d1] against a target CSG [d2]: both consistent, every
   correspondence covered, then the pairwise shape and (strict) partOf
   checks of {!Csg.compatible}. *)
let pair cmg_s cmg_t lifted (d1 : Csg.t) (d2 : Csg.t) =
  let covers l =
    List.mem l.l_snode d1.c_nodes && List.mem l.l_tnode d2.c_nodes
  in
  if
    Cm_graph.consistent_subgraph cmg_s d1.c_edges
    && List.for_all covers lifted
  then
    Csg.compatible ~strict_partof:true ~source:cmg_s ~target:cmg_t d1 d2
      ~penalty:(d1.c_cost +. d2.c_cost)
      (List.map (fun l -> (l.l_snode, l.l_tnode)) lifted)
    |> Option.map (fun score ->
           {
             src_query =
               Csg.query cmg_s d1
                 (List.map (fun l -> (l.l_snode, l.l_sattr)) lifted);
             tgt_query =
               Csg.query cmg_t d2
                 (List.map (fun l -> (l.l_tnode, l.l_tattr)) lifted);
             covered = List.map (fun l -> l.l_corr) lifted;
             score;
           })
  else None

let discover ~source ~target ~corrs () =
  let cmg_s = Cm_graph.compile source and cmg_t = Cm_graph.compile target in
  let lifted = lift cmg_s cmg_t corrs in
  let tgt_csgs = csgs cmg_t (List.map (fun l -> l.l_tnode) lifted) in
  let src_csgs = csgs cmg_s (List.map (fun l -> l.l_snode) lifted) in
  let candidates =
    List.concat_map
      (fun (d2 : Csg.t) ->
        if Cm_graph.consistent_subgraph cmg_t d2.c_edges then
          List.filter_map (fun d1 -> pair cmg_s cmg_t lifted d1 d2) src_csgs
        else [])
      tgt_csgs
  in
  (* dedupe by query equivalence *)
  let deduped =
    List.fold_left
      (fun acc r ->
        if
          List.exists
            (fun r' ->
              Query.equivalent r.src_query r'.src_query
              && Query.equivalent r.tgt_query r'.tgt_query)
            acc
        then acc
        else r :: acc)
      [] candidates
  in
  List.sort (fun a b -> compare a.score b.score) deduped
  |> List.filteri (fun i _ -> i < max_candidates)

let pp_result ppf r =
  (* Query.pp opens no box: each query gets its own, or every comma in
     it would break the vertical box *)
  Fmt.pf ppf
    "@[<v2>cm-mapping (score %.2f):@,src: @[<hov2>%a@]@,tgt: @[<hov2>%a@]@]"
    r.score Query.pp r.src_query Query.pp r.tgt_query
