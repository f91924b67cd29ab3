(* Unit and property tests for Smg_graph: digraphs, Dijkstra, Steiner
   arborescences, path enumeration. *)

module Digraph = Smg_graph.Digraph
module Dijkstra = Smg_graph.Dijkstra
module Steiner = Smg_graph.Steiner
module Paths = Smg_graph.Paths

let unit_cost (_ : unit Digraph.edge) = Some 1.

(* A small diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, plus a shortcut 0 -> 3. *)
let diamond =
  Digraph.make ~n:4
    [ (0, 1, ()); (1, 3, ()); (0, 2, ()); (2, 3, ()); (0, 3, ()) ]

let test_digraph_basics () =
  Alcotest.(check int) "nodes" 4 (Digraph.n_nodes diamond);
  Alcotest.(check int) "edges" 5 (Digraph.n_edges diamond);
  Alcotest.(check int) "out-degree of 0" 3
    (List.length (Digraph.out_edges diamond 0));
  Alcotest.(check int) "in-degree of 3" 3
    (List.length (Digraph.in_edges diamond 3));
  let e = Digraph.edge diamond 1 in
  Alcotest.(check int) "edge src" 1 e.Digraph.src;
  Alcotest.(check int) "edge dst" 3 e.Digraph.dst

let test_digraph_reverse () =
  let r = Digraph.reverse diamond in
  Alcotest.(check int) "reverse out-degree of 3" 3
    (List.length (Digraph.out_edges r 3));
  let e = Digraph.edge r 1 in
  Alcotest.(check int) "reversed edge src" 3 e.Digraph.src

let test_digraph_map_labels () =
  let g = Digraph.make ~n:2 [ (0, 1, 10) ] in
  let g' = Digraph.map_labels string_of_int g in
  Alcotest.(check string) "relabelled" "10" (Digraph.edge g' 0).Digraph.lbl

let test_digraph_bad_node () =
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Digraph.make: node 5 outside 0..2") (fun () ->
      ignore (Digraph.make ~n:3 [ (0, 5, ()) ]))

let test_is_tree_under () =
  Alcotest.(check bool) "path is a tree" true
    (Digraph.is_tree_under diamond ~root:0 ~edge_ids:[ 0; 1 ]);
  Alcotest.(check bool) "two parents is not a tree" false
    (Digraph.is_tree_under diamond ~root:0 ~edge_ids:[ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "unreachable edge is not a tree" false
    (Digraph.is_tree_under diamond ~root:1 ~edge_ids:[ 1; 3 ])

let test_dijkstra_diamond () =
  let r = Dijkstra.run diamond ~cost:unit_cost ~src:0 in
  Alcotest.(check (option (float 1e-9))) "dist to 3" (Some 1.) (Dijkstra.dist r 3);
  Alcotest.(check (option (float 1e-9))) "dist to 1" (Some 1.) (Dijkstra.dist r 1);
  Alcotest.(check (option (list int))) "path to 3 is the shortcut" (Some [ 4 ])
    (Dijkstra.path_edges r 3)

let test_dijkstra_unreachable () =
  let g = Digraph.make ~n:3 [ (0, 1, ()) ] in
  let r = Dijkstra.run g ~cost:unit_cost ~src:0 in
  Alcotest.(check (option (float 1e-9))) "node 2 unreachable" None (Dijkstra.dist r 2);
  Alcotest.(check (option (list int))) "no path" None (Dijkstra.path_edges r 2)

let test_dijkstra_filtered () =
  (* Block the shortcut: the distance increases to 2. *)
  let cost (e : unit Digraph.edge) = if e.Digraph.id = 4 then None else Some 1. in
  let r = Dijkstra.run diamond ~cost ~src:0 in
  Alcotest.(check (option (float 1e-9))) "dist to 3 without shortcut" (Some 2.)
    (Dijkstra.dist r 3)

let test_dijkstra_weighted () =
  let g = Digraph.make ~n:3 [ (0, 1, 5.); (0, 2, 1.); (2, 1, 1.) ] in
  let cost (e : float Digraph.edge) = Some e.Digraph.lbl in
  let r = Dijkstra.run g ~cost ~src:0 in
  Alcotest.(check (option (float 1e-9))) "weighted shortest" (Some 2.)
    (Dijkstra.dist r 1);
  Alcotest.(check (option (list int))) "via node 2" (Some [ 1; 2 ])
    (Dijkstra.path_edges r 1)

let test_steiner_single_terminal () =
  match Steiner.arborescence diamond ~cost:unit_cost ~root:0 ~terminals:[ 3 ] with
  | None -> Alcotest.fail "expected a tree"
  | Some t ->
      Alcotest.(check (float 1e-9)) "cost" 1. t.Steiner.cost;
      Alcotest.(check (list int)) "edges" [ 4 ] t.Steiner.edge_ids

let test_steiner_two_terminals () =
  (* Reaching 1 and 2 from 0 needs both branch edges. *)
  match
    Steiner.arborescence diamond ~cost:unit_cost ~root:0 ~terminals:[ 1; 2 ]
  with
  | None -> Alcotest.fail "expected a tree"
  | Some t ->
      Alcotest.(check (float 1e-9)) "cost" 2. t.Steiner.cost;
      Alcotest.(check bool) "is arborescence" true
        (Digraph.is_tree_under diamond ~root:0 ~edge_ids:t.Steiner.edge_ids)

let test_steiner_through_steiner_node () =
  (* Star: 0 -> 1, 1 -> 2, 1 -> 3; terminals 2 and 3 from root 0 pass
     through the non-terminal node 1. *)
  let g = Digraph.make ~n:4 [ (0, 1, ()); (1, 2, ()); (1, 3, ()) ] in
  match Steiner.arborescence g ~cost:unit_cost ~root:0 ~terminals:[ 2; 3 ] with
  | None -> Alcotest.fail "expected a tree"
  | Some t ->
      Alcotest.(check (float 1e-9)) "cost shares the stem" 3. t.Steiner.cost;
      Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ]
        (Steiner.tree_nodes g t)

let test_steiner_unreachable () =
  let g = Digraph.make ~n:3 [ (0, 1, ()) ] in
  Alcotest.(check bool) "no arborescence" true
    (Steiner.arborescence g ~cost:unit_cost ~root:0 ~terminals:[ 2 ] = None)

let test_minimal_trees_ties () =
  (* Symmetric graph: both roots 1 and 2 give cost-1 trees to reach 3. *)
  let sol =
    Steiner.minimal_trees_bounded diamond ~cost:unit_cost ~roots:[ 1; 2 ]
      ~terminals:[ 3 ]
  in
  Alcotest.(check bool) "unbudgeted search is exact" true sol.Steiner.exact;
  let trees = sol.Steiner.trees in
  Alcotest.(check int) "two tied minimal trees" 2 (List.length trees);
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "cost 1" 1. t.Steiner.cost)
    trees

let test_minimal_trees_prefers_cheaper_root () =
  let sol =
    Steiner.minimal_trees_bounded diamond ~cost:unit_cost ~roots:[ 0; 1 ]
      ~terminals:[ 3 ]
  in
  Alcotest.(check bool) "unbudgeted search is exact" true sol.Steiner.exact;
  let trees = sol.Steiner.trees in
  (* Root 0 via shortcut costs 1, root 1 costs 1: both minimal. *)
  Alcotest.(check int) "both roots tie" 2 (List.length trees)

let test_simple_paths () =
  let ps =
    Paths.simple_paths diamond ~src:0 ~dst:3 ~max_len:3 ~ok:(fun _ -> true)
  in
  Alcotest.(check int) "three simple paths" 3 (List.length ps);
  let lengths = List.sort compare (List.map (fun p -> List.length p.Paths.edge_ids) ps) in
  Alcotest.(check (list int)) "lengths" [ 1; 2; 2 ] lengths

let test_simple_paths_bound () =
  let ps =
    Paths.simple_paths diamond ~src:0 ~dst:3 ~max_len:1 ~ok:(fun _ -> true)
  in
  Alcotest.(check int) "only the shortcut" 1 (List.length ps)

let test_simple_paths_same_node () =
  let ps =
    Paths.simple_paths diamond ~src:2 ~dst:2 ~max_len:3 ~ok:(fun _ -> true)
  in
  Alcotest.(check int) "empty path" 1 (List.length ps);
  Alcotest.(check (list int)) "no edges" [] (List.hd ps).Paths.edge_ids

let test_simple_paths_zero_len () =
  let ps =
    Paths.simple_paths diamond ~src:0 ~dst:3 ~max_len:0 ~ok:(fun _ -> true)
  in
  Alcotest.(check int) "no path of length 0 to another node" 0
    (List.length ps)

let test_best_paths () =
  let score p = float_of_int (List.length p.Paths.edge_ids) in
  let ps = Paths.best_paths diamond ~src:0 ~dst:3 ~max_len:3 ~ok:(fun _ -> true) ~score in
  Alcotest.(check int) "single best path" 1 (List.length ps);
  Alcotest.(check (list int)) "the shortcut" [ 4 ] (List.hd ps).Paths.edge_ids

(* ---- property tests ---------------------------------------------------- *)

let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 14) (fun n ->
        let* density = int_range 1 3 in
        let* edges =
          list_size
            (int_range n (n * density))
            (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        in
        return (n, edges)))

let arb_graph =
  QCheck.make random_graph_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality on edges"
    ~count:100 arb_graph (fun (n, es) ->
      let g = Digraph.make ~n (List.map (fun (a, b) -> (a, b, ())) es) in
      let r = Dijkstra.run g ~cost:unit_cost ~src:0 in
      Digraph.fold_edges
        (fun ok e ->
          ok
          &&
          match (Dijkstra.dist r e.Digraph.src, Dijkstra.dist r e.Digraph.dst) with
          | Some du, Some dv -> dv <= du +. 1. +. 1e-9
          | Some _, None -> false (* reachable src implies reachable dst *)
          | None, _ -> true)
        true g)

let prop_dijkstra_path_length_matches_dist =
  QCheck.Test.make ~name:"dijkstra path length equals distance" ~count:100
    arb_graph (fun (n, es) ->
      let g = Digraph.make ~n (List.map (fun (a, b) -> (a, b, ())) es) in
      let r = Dijkstra.run g ~cost:unit_cost ~src:0 in
      List.for_all
        (fun v ->
          match (Dijkstra.dist r v, Dijkstra.path_edges r v) with
          | Some d, Some p -> abs_float (d -. float_of_int (List.length p)) < 1e-9
          | None, None -> true
          | Some _, None | None, Some _ -> false)
        (Digraph.nodes g))

let prop_steiner_tree_is_tree_and_spans =
  QCheck.Test.make ~name:"steiner result is an arborescence spanning terminals"
    ~count:60
    QCheck.(pair arb_graph (QCheck.make QCheck.Gen.(int_range 1 3)))
    (fun ((n, es), k) ->
      let g = Digraph.make ~n (List.map (fun (a, b) -> (a, b, ())) es) in
      let terminals = List.init (min k n) (fun i -> i * (n - 1) / (max 1 (min k n - 1)) ) in
      let terminals = List.sort_uniq compare terminals in
      match Steiner.arborescence g ~cost:unit_cost ~root:0 ~terminals with
      | None -> true (* unreachable is fine *)
      | Some t ->
          let nodes = Steiner.tree_nodes g t in
          List.for_all (fun term -> List.mem term nodes) terminals
          && Digraph.is_tree_under g ~root:0 ~edge_ids:t.Steiner.edge_ids)

let prop_steiner_optimal_vs_bruteforce =
  (* For two terminals the optimum is min over meeting points w of
     d(r,w) + d(w,t1) + d(w,t2)?  No — for a *tree*, the optimum equals
     min over branch node w of d(r,w) + d(w,t1) + d(w,t2). *)
  QCheck.Test.make ~name:"steiner matches brute force for 2 terminals"
    ~count:60 arb_graph (fun (n, es) ->
      let g = Digraph.make ~n (List.map (fun (a, b) -> (a, b, ())) es) in
      let t1 = n - 1 and t2 = n / 2 in
      let sp = Dijkstra.all_pairs g ~cost:unit_cost in
      let d u v = Dijkstra.dist sp.(u) v in
      let brute =
        List.fold_left
          (fun acc w ->
            match (d 0 w, d w t1, d w t2) with
            | Some a, Some b, Some c -> min acc (a +. b +. c)
            | _ -> acc)
          infinity (Digraph.nodes g)
      in
      match Steiner.arborescence g ~cost:unit_cost ~root:0 ~terminals:[ t1; t2 ] with
      | None -> brute = infinity
      | Some t -> t.Steiner.cost <= brute +. 1e-9)

let prop_simple_paths_are_simple =
  QCheck.Test.make ~name:"enumerated paths are simple and well-formed"
    ~count:60 arb_graph (fun (n, es) ->
      let g = Digraph.make ~n (List.map (fun (a, b) -> (a, b, ())) es) in
      let ps =
        Paths.simple_paths g ~src:0 ~dst:(n - 1) ~max_len:4 ~ok:(fun _ -> true)
      in
      List.for_all
        (fun p ->
          let nodes = p.Paths.nodes in
          List.length (List.sort_uniq compare nodes) = List.length nodes
          && List.length nodes = List.length p.Paths.edge_ids + 1)
        ps)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "graph.digraph",
      [
        Alcotest.test_case "basics" `Quick test_digraph_basics;
        Alcotest.test_case "reverse" `Quick test_digraph_reverse;
        Alcotest.test_case "map labels" `Quick test_digraph_map_labels;
        Alcotest.test_case "bad node" `Quick test_digraph_bad_node;
        Alcotest.test_case "is_tree_under" `Quick test_is_tree_under;
      ] );
    ( "graph.dijkstra",
      [
        Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "filtered edges" `Quick test_dijkstra_filtered;
        Alcotest.test_case "weighted" `Quick test_dijkstra_weighted;
        q prop_dijkstra_triangle;
        q prop_dijkstra_path_length_matches_dist;
      ] );
    ( "graph.steiner",
      [
        Alcotest.test_case "single terminal" `Quick test_steiner_single_terminal;
        Alcotest.test_case "two terminals" `Quick test_steiner_two_terminals;
        Alcotest.test_case "steiner node" `Quick test_steiner_through_steiner_node;
        Alcotest.test_case "unreachable" `Quick test_steiner_unreachable;
        Alcotest.test_case "ties kept" `Quick test_minimal_trees_ties;
        Alcotest.test_case "tied roots" `Quick test_minimal_trees_prefers_cheaper_root;
        q prop_steiner_tree_is_tree_and_spans;
        q prop_steiner_optimal_vs_bruteforce;
      ] );
    ( "graph.paths",
      [
        Alcotest.test_case "simple paths" `Quick test_simple_paths;
        Alcotest.test_case "length bound" `Quick test_simple_paths_bound;
        Alcotest.test_case "src = dst" `Quick test_simple_paths_same_node;
        Alcotest.test_case "zero length bound" `Quick test_simple_paths_zero_len;
        Alcotest.test_case "best paths" `Quick test_best_paths;
        q prop_simple_paths_are_simple;
      ] );
  ]
