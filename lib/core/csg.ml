module Digraph = Smg_graph.Digraph
module Steiner = Smg_graph.Steiner
module Paths = Smg_graph.Paths
module Cml = Smg_cm.Cml
module Cardinality = Smg_cm.Cardinality
module Cm_graph = Smg_cm.Cm_graph
module Encode = Smg_semantics.Encode

type t = {
  c_nodes : int list;
  c_edges : int list;
  c_cost : float;
  c_anchor : int option;
  c_how : string;
  c_approx : bool;
}

let uniq xs = List.sort_uniq compare xs

let of_tree ?(approx = false) cmg (t : Steiner.tree) =
  {
    c_nodes = Steiner.tree_nodes (Cm_graph.graph cmg) t;
    c_edges = t.Steiner.edge_ids;
    c_cost = t.Steiner.cost;
    c_anchor = Some t.Steiner.root;
    c_how = "";
    c_approx = approx;
  }

let class_like_nodes cmg =
  List.filter (Cm_graph.is_class_like cmg) (Digraph.nodes (Cm_graph.graph cmg))

let minimal_trees ?budget cmg ~cost ~terminals =
  Steiner.minimal_trees_bounded ?budget (Cm_graph.graph cmg) ~cost
    ~roots:(class_like_nodes cmg) ~terminals

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

(* ---- candidate searches ------------------------------------------------ *)

let variants ?budget ?(approx = false) cmg ~cost ~terminals (t : Steiner.tree) =
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
  if List.exists (fun ps -> ps = []) per_terminal then [ of_tree ~approx cmg t ]
  else begin
    let unions =
      List.fold_left
        (fun acc ps ->
          List.concat_map
            (fun partial ->
              List.map
                (fun (p : _ Paths.path) ->
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
    let tied =
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
    (* dedupe by edge set *)
    List.fold_left
      (fun acc c ->
        if
          List.exists
            (fun c' ->
              List.sort compare c'.c_edges = List.sort compare c.c_edges)
            acc
        then acc
        else c :: acc)
      [] (of_tree ~approx cmg t :: tied)
    |> List.rev
  end

let lossy_paths ?budget cmg ~max_len ~src ~dst =
  let ok (e : Cm_graph.edge_lbl Digraph.edge) =
    Cm_graph.is_connection_edge e.Digraph.lbl
  in
  let score (p : _ Paths.path) =
    float_of_int
      ((1000 * Cm_graph.reversals cmg p.Paths.edge_ids)
      + List.length p.Paths.edge_ids)
  in
  Paths.best_paths ?budget (Cm_graph.graph cmg) ~src ~dst ~max_len ~ok ~score
  |> List.map (fun (p : _ Paths.path) ->
         {
           c_nodes = uniq p.Paths.nodes;
           c_edges = p.Paths.edge_ids;
           c_cost = float_of_int (List.length p.Paths.edge_ids);
           c_anchor = None;
           c_how = "";
           c_approx = false;
         })

(* ---- compatibility filters --------------------------------------------- *)

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
       (fun id -> (Digraph.edge g id).Digraph.lbl.Cm_graph.sem = Cml.PartOf)
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

let compatible ?(use_shapes = true) ?(use_partof = true) ~strict_partof ~source
    ~target d1 d2 ~penalty covered =
  let pairs =
    List.concat_map
      (fun (sa, ta) ->
        List.filter_map
          (fun (sb, tb) ->
            if sa < sb && ta <> tb then Some (sa, ta, sb, tb) else None)
          covered)
      covered
  in
  List.fold_left
    (fun acc (sa, ta, sb, tb) ->
      match acc with
      | None -> None
      | Some penalty -> (
          match
            ( tree_path source d1.c_edges sa sb,
              tree_path target d2.c_edges ta tb )
          with
          | Some sp, Some tp ->
              let s_shape = Cm_graph.path_shape source sp in
              let t_shape = Cm_graph.path_shape target tp in
              if use_shapes && not (leq_shape s_shape t_shape) then None
              else if
                use_partof && is_partof_path target tp
                && not (is_partof_path source sp)
              then if strict_partof then None else Some (penalty +. 5.)
              else Some penalty
          | _, _ -> Some penalty))
    (Some penalty) pairs

let query cmg d outputs =
  Encode.query_of_csg cmg
    {
      Encode.csg_nodes = d.c_nodes;
      csg_edges = d.c_edges;
      csg_outputs =
        List.mapi (fun i (n, a) -> (n, a, Printf.sprintf "v%d" i)) outputs;
      csg_anchor = d.c_anchor;
    }
