(* Tests for the RIC-based baseline (Clio-style logical relations). *)

module Schema = Smg_relational.Schema
module Atom = Smg_cq.Atom
module Mapping = Smg_cq.Mapping
module Baseline = Smg_ric.Baseline

let books = Fixtures.Books.source_schema

let lr_for root =
  List.find
    (fun lr -> lr.Baseline.lr_root = root)
    (Baseline.logical_relations books)

let tables lr =
  List.sort_uniq compare
    (List.map (fun (a : Atom.t) -> a.Atom.pred) lr.Baseline.lr_atoms)

let test_logical_relations_books () =
  (* chasing writes pulls in person and book (S1 of the paper) *)
  Alcotest.(check (list string)) "S1" [ "book"; "person"; "writes" ]
    (tables (lr_for "writes"));
  Alcotest.(check (list string)) "S2" [ "book"; "bookstore"; "soldAt" ]
    (tables (lr_for "soldAt"));
  Alcotest.(check (list string)) "entity tables chase to themselves"
    [ "person" ]
    (tables (lr_for "person"))

let test_chase_shares_variables () =
  let lr = lr_for "writes" in
  let writes =
    List.find (fun (a : Atom.t) -> a.Atom.pred = "writes") lr.Baseline.lr_atoms
  in
  let person =
    List.find (fun (a : Atom.t) -> a.Atom.pred = "person") lr.Baseline.lr_atoms
  in
  Alcotest.(check bool) "writes.pname = person.pname" true
    (Atom.equal_term (List.hd writes.Atom.args) (List.hd person.Atom.args))

let test_cyclic_rics_terminate () =
  let schema =
    Schema.make ~name:"cyc"
      [
        Schema.table ~key:[ "a" ] "t1" [ ("a", Schema.TString); ("b", Schema.TString) ];
        Schema.table ~key:[ "b" ] "t2" [ ("b", Schema.TString); ("a", Schema.TString) ];
      ]
      [
        Schema.ric ~name:"r1" ~from_:("t1", [ "b" ]) ~to_:("t2", [ "b" ]);
        Schema.ric ~name:"r2" ~from_:("t2", [ "a" ]) ~to_:("t1", [ "a" ]);
      ]
  in
  let lrs = Baseline.logical_relations schema in
  Alcotest.(check int) "one LR per table" 2 (List.length lrs);
  List.iter
    (fun lr ->
      Alcotest.(check bool) "bounded size" true
        (List.length lr.Baseline.lr_atoms <= 24))
    lrs

let test_generate_books () =
  let ms =
    Baseline.generate ~source:books ~target:Fixtures.Books.target_schema
      ~corrs:Fixtures.Books.corrs
  in
  Alcotest.(check bool) "baseline produces candidates" true (List.length ms >= 2);
  (* The M5 composition is out of reach for the baseline. *)
  let m5 =
    List.exists
      (fun m ->
        let ts = Fixtures.src_tables m in
        List.mem "person" ts && List.mem "bookstore" ts)
      ms
  in
  Alcotest.(check bool) "no author-bookstore pairing" false m5;
  (* every candidate covers at least one correspondence *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "covers something" true (m.Mapping.covered <> []))
    ms

let test_join_pruning () =
  (* With only the person.pname correspondence, the writes logical
     relation prunes down to just person — so the (writes → target)
     candidate collapses into the trivial (person → target) one. *)
  let ms =
    Baseline.generate ~source:books ~target:Fixtures.Books.target_schema
      ~corrs:[ Mapping.corr_of_strings "person.pname" "hasBookSoldAt.aname" ]
  in
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "only person remains" [ "person" ]
        (Fixtures.src_tables m))
    ms;
  Alcotest.(check int) "single deduplicated candidate" 1 (List.length ms)

let test_isa_case_baseline_splits () =
  (* Example 1.2: the baseline maps programmer and engineer separately
     and never joins them (no RIC connects them). *)
  let ms =
    Baseline.generate ~source:Fixtures.Employees.source_schema
      ~target:Fixtures.Employees.target_schema ~corrs:Fixtures.Employees.corrs
  in
  Alcotest.(check bool) "no programmer ⋈ engineer" false
    (List.exists
       (fun m ->
         let ts = Fixtures.src_tables m in
         List.mem "programmer" ts && List.mem "engineer" ts)
       ms)

let test_pruning_per_side () =
  (* Both schemas name a table person and a table city, but their RICs
     differ: the source's person references city, the target's city
     references person. Each pair prunes its logical relations under
     the same required tables on both sides, so pruned joins cached by
     table name alone would hand the target the source's atoms. *)
  let source =
    Schema.make ~name:"s"
      [
        Schema.table ~key:[ "pid" ] "person"
          [
            ("pid", Schema.TString);
            ("name", Schema.TString);
            ("city", Schema.TString);
          ];
        Schema.table ~key:[ "cid" ] "city"
          [ ("cid", Schema.TString); ("cname", Schema.TString) ];
      ]
      [
        Schema.ric ~name:"lives" ~from_:("person", [ "city" ])
          ~to_:("city", [ "cid" ]);
      ]
  in
  let target =
    Schema.make ~name:"t"
      [
        Schema.table ~key:[ "pid" ] "person"
          [ ("pid", Schema.TString); ("name", Schema.TString) ];
        Schema.table ~key:[ "cid" ] "city"
          [
            ("cid", Schema.TString);
            ("cname", Schema.TString);
            ("mayor", Schema.TString);
          ];
      ]
      [
        Schema.ric ~name:"mayor" ~from_:("city", [ "mayor" ])
          ~to_:("person", [ "pid" ]);
      ]
  in
  let ms =
    Baseline.generate ~source ~target
      ~corrs:
        [
          Mapping.corr_of_strings "person.name" "person.name";
          Mapping.corr_of_strings "city.cname" "city.cname";
        ]
  in
  let term = function
    | Atom.Var x -> x
    | Atom.Cst v -> Smg_relational.Value.to_string v
  in
  let body (q : Smg_cq.Query.t) =
    String.concat " ⋈ "
      (List.map
         (fun (a : Atom.t) ->
           a.Atom.pred ^ "(" ^ String.concat ", " (List.map term a.Atom.args) ^ ")")
         q.Smg_cq.Query.body)
  in
  Alcotest.(check (list (triple string string string)))
    "pruned atoms per side"
    [
      ( "ric:city→city",
        "city(city0_cid, city0_cname)",
        "city(city0_cid, city0_cname, city0_mayor)" );
      ( "ric:person→person",
        "person(person0_pid, person0_name, person0_city)",
        "person(person0_pid, person0_name)" );
      ( "ric:person→city",
        "person(person0_pid, person0_name, person0_city) ⋈ city(person0_city, \
         city0_cname)",
        "city(city0_cid, city0_cname, city0_mayor) ⋈ person(city0_mayor, \
         person0_name)" );
    ]
    (List.map
       (fun (m : Mapping.t) ->
         (m.Mapping.m_name, body m.Mapping.src_query, body m.Mapping.tgt_query))
       ms)

let suite =
  [
    ( "ric.baseline",
      [
        Alcotest.test_case "logical relations (books)" `Quick test_logical_relations_books;
        Alcotest.test_case "chase shares variables" `Quick test_chase_shares_variables;
        Alcotest.test_case "cyclic RICs terminate" `Quick test_cyclic_rics_terminate;
        Alcotest.test_case "mapping generation (books)" `Quick test_generate_books;
        Alcotest.test_case "join pruning heuristic" `Quick test_join_pruning;
        Alcotest.test_case "ISA case splits" `Quick test_isa_case_baseline_splits;
        Alcotest.test_case "join pruning per side" `Quick test_pruning_per_side;
      ] );
  ]
