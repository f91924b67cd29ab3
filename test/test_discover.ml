(* Integration tests for the semantic discovery algorithm: the paper's
   Examples 1.1, 1.2, 3.1 end to end. *)

module Mapping = Smg_cq.Mapping
module Query = Smg_cq.Query
module Atom = Smg_cq.Atom
module Discover = Smg_core.Discover

let discover_books () =
  Discover.discover ~source:(Fixtures.Books.source ())
    ~target:(Fixtures.Books.target ()) ~corrs:Fixtures.Books.corrs ()

let test_books_m5 () =
  let ms = discover_books () in
  Alcotest.(check bool) "candidates produced" true (ms <> []);
  let best = List.hd ms in
  Alcotest.(check (list string)) "M5 source tables"
    [ "bookstore"; "person"; "soldAt"; "writes" ]
    (Fixtures.src_tables best);
  Alcotest.(check (list string)) "target side" [ "hasBookSoldAt" ]
    (Fixtures.tgt_tables best);
  Alcotest.(check int) "covers both correspondences" 2
    (List.length best.Mapping.covered)

let test_books_m5_head_safety () =
  List.iter
    (fun (m : Mapping.t) ->
      let safe (q : Query.t) =
        let bv = Query.body_vars q in
        List.for_all (fun v -> List.mem v bv) (Query.head_vars q)
      in
      Alcotest.(check bool) "src head safe" true (safe m.Mapping.src_query);
      Alcotest.(check bool) "tgt head safe" true (safe m.Mapping.tgt_query))
    (discover_books ())

let test_books_tgd_executes () =
  (* Run the discovered mapping as data exchange on a small instance. *)
  let module I = Smg_relational.Instance in
  let vs s = Smg_relational.Value.VString s in
  let src_inst =
    I.empty
    |> fun i -> I.add_tuple i "person" ~header:[ "pname" ] [| vs "knuth" |]
    |> fun i ->
    I.add_tuple i "writes" ~header:[ "pname"; "bid" ] [| vs "knuth"; vs "taocp" |]
    |> fun i -> I.add_tuple i "book" ~header:[ "bid" ] [| vs "taocp" |]
    |> fun i ->
    I.add_tuple i "soldAt" ~header:[ "bid"; "sid" ] [| vs "taocp"; vs "store1" |]
    |> fun i -> I.add_tuple i "bookstore" ~header:[ "sid" ] [| vs "store1" |]
  in
  let m = List.hd (discover_books ()) in
  match
    Smg_cq.Chase.exchange ~source:Fixtures.Books.source_schema
      ~target:Fixtures.Books.target_schema
      ~mappings:[ Mapping.to_tgd m ]
      src_inst
  with
  | Smg_cq.Chase.Saturated out ->
      Alcotest.(check int) "one exchanged tuple" 1
        (I.cardinality out "hasBookSoldAt");
      let t = List.hd (Option.get (I.relation out "hasBookSoldAt")).I.tuples in
      Alcotest.(check bool) "knuth at store1" true
        (Smg_relational.Value.equal t.(0) (vs "knuth")
        && Smg_relational.Value.equal t.(1) (vs "store1"))
  | _ -> Alcotest.fail "exchange did not saturate"

let test_employees_isa_merge () =
  (* Example 1.2: the semantic method merges programmer and engineer. *)
  let ms =
    Discover.discover ~source:(Fixtures.Employees.source ())
      ~target:(Fixtures.Employees.target ()) ~corrs:Fixtures.Employees.corrs ()
  in
  Alcotest.(check bool) "candidates produced" true (ms <> []);
  let best = List.hd ms in
  Alcotest.(check (list string)) "joins both subclass tables"
    [ "engineer"; "programmer" ]
    (Fixtures.src_tables best);
  Alcotest.(check bool) "outer-join recommended" true best.Mapping.outer;
  Alcotest.(check int) "covers all three correspondences" 3
    (List.length best.Mapping.covered)

let test_projects_case_a1 () =
  (* Example 3.1: anchored functional tree rooted at Project. *)
  let ms =
    Discover.discover ~source:(Fixtures.Projects.source ())
      ~target:(Fixtures.Projects.target ()) ~corrs:Fixtures.Projects.corrs ()
  in
  Alcotest.(check bool) "candidates produced" true (ms <> []);
  let best = List.hd ms in
  Alcotest.(check (list string)) "control ⋈ manage" [ "control"; "manage" ]
    (Fixtures.src_tables best);
  Alcotest.(check int) "all three correspondences" 3
    (List.length best.Mapping.covered)

let test_projects_case_a2 () =
  (* Drop the root correspondence (v1): Case A.2 still finds the same
     minimal functional tree. *)
  let corrs =
    [
      Mapping.corr_of_strings "control.dept" "proj.dept";
      Mapping.corr_of_strings "manage.mgr" "proj.emp";
    ]
  in
  let ms =
    Discover.discover ~source:(Fixtures.Projects.source ())
      ~target:(Fixtures.Projects.target ()) ~corrs ()
  in
  Alcotest.(check bool) "candidates produced" true (ms <> []);
  let best = List.hd ms in
  (* dept values flow from control (it carries a correspondence), so the
     translated expression joins both tables *)
  Alcotest.(check (list string)) "control ⋈ manage"
    [ "control"; "manage" ]
    (Fixtures.src_tables best)

let test_single_correspondence_trivial () =
  let ms =
    Discover.discover ~source:(Fixtures.Books.source ())
      ~target:(Fixtures.Books.target ())
      ~corrs:[ Mapping.corr_of_strings "person.pname" "hasBookSoldAt.aname" ]
      ()
  in
  Alcotest.(check bool) "trivial mapping found" true
    (List.exists
       (fun m -> Fixtures.src_tables m = [ "person" ])
       ms)

let test_no_correspondences () =
  let ms =
    Discover.discover ~source:(Fixtures.Books.source ())
      ~target:(Fixtures.Books.target ()) ~corrs:[] ()
  in
  Alcotest.(check int) "no candidates" 0 (List.length ms)

let test_candidates_deduplicated () =
  let ms = discover_books () in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
        List.iter
          (fun m' ->
            Alcotest.(check bool) "no duplicate candidates" false
              (Mapping.same m m'))
          rest;
        pairs rest
  in
  pairs ms

let test_max_candidates_respected () =
  let options = { Discover.default_options with max_candidates = 1 } in
  let ms =
    Discover.discover ~options ~source:(Fixtures.Books.source ())
      ~target:(Fixtures.Books.target ()) ~corrs:Fixtures.Books.corrs ()
  in
  Alcotest.(check int) "capped" 1 (List.length ms)

let test_outer_variants_exchange () =
  (* Example 1.2 end to end: the outer mapping realised as Skolemized
     tgd variants materialises the full outer join — an engineer-only
     employee survives with a null acnt, and the engineer+programmer
     person merges into one row. *)
  let module I = Smg_relational.Instance in
  let module V = Smg_relational.Value in
  let vs s = V.VString s in
  let ms =
    Discover.discover ~source:(Fixtures.Employees.source ())
      ~target:(Fixtures.Employees.target ()) ~corrs:Fixtures.Employees.corrs ()
  in
  let m = List.hd ms in
  assert m.Mapping.outer;
  let tgds =
    Mapping.outer_variants ~target:Fixtures.Employees.target_schema m
  in
  Alcotest.(check int) "three variants for a two-table join" 3
    (List.length tgds);
  let src_inst =
    I.empty
    |> fun i ->
    I.add_tuple i "programmer" ~header:[ "ssn"; "name"; "acnt" ]
      [| vs "1"; vs "ada"; vs "acnt1" |]
    |> fun i ->
    I.add_tuple i "engineer" ~header:[ "ssn"; "name"; "site" ]
      [| vs "1"; vs "ada"; vs "site1" |]
    |> fun i ->
    I.add_tuple i "engineer" ~header:[ "ssn"; "name"; "site" ]
      [| vs "2"; vs "bob"; vs "site2" |]
  in
  match
    Smg_cq.Chase.exchange ~source:Fixtures.Employees.source_schema
      ~target:Fixtures.Employees.target_schema ~mappings:tgds src_inst
  with
  | Smg_cq.Chase.Saturated out ->
      Alcotest.(check int) "two employees (ada merged, bob kept)" 2
        (I.cardinality out "employee");
      let rel = Option.get (I.relation out "employee") in
      let row_by_site site =
        List.find (fun t -> V.equal t.(2) (vs site)) rel.I.tuples
      in
      let ada = row_by_site "site1" and bob = row_by_site "site2" in
      Alcotest.(check bool) "ada's partial rows merged into one full row"
        true
        (V.equal ada.(1) (vs "ada") && V.equal ada.(3) (vs "acnt1"));
      (* name flows from programmer.name per the correspondences, so the
         engineer-only person keeps nulls there — outer-join semantics *)
      Alcotest.(check bool) "bob's name and acnt are null" true
        (V.is_null bob.(1) && V.is_null bob.(3))
  | Smg_cq.Chase.Bounded _ -> Alcotest.fail "exchange did not saturate"
  | Smg_cq.Chase.Failed msg -> Alcotest.fail msg

let test_provenance_recorded () =
  let ms = discover_books () in
  let best = List.hd ms in
  Alcotest.(check bool) "provenance non-empty" true
    (best.Mapping.provenance <> []);
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the lossy composition" true
    (List.exists (contains ~needle:"non-functional path") best.Mapping.provenance)

let test_case_b_provenance () =
  (* DBLP author-of-title: neither corr target table covers both marked
     nodes, so the target CSG comes from Case B *)
  let scen = Smg_eval.Dataset_dblp.scenario () in
  let case =
    List.find
      (fun c -> c.Smg_eval.Scenario.case_name = "author-of-title")
      scen.Smg_eval.Scenario.cases
  in
  let ms =
    Discover.discover ~source:scen.Smg_eval.Scenario.source
      ~target:scen.Smg_eval.Scenario.target ~corrs:case.Smg_eval.Scenario.corrs ()
  in
  Alcotest.(check bool) "Case B recorded" true
    (List.exists
       (fun line ->
         String.length line >= 6 && String.sub line 0 6 = "Case B")
       (List.hd ms).Mapping.provenance)

let test_side_requires_stree_per_table () =
  Alcotest.check_raises "missing s-tree"
    (Invalid_argument "no s-tree for table bookstore") (fun () ->
      ignore
        (Discover.side ~schema:Fixtures.Books.source_schema
           ~cm:Fixtures.Books.source_cm
           (List.filter
              (fun st -> st.Smg_semantics.Stree.st_table <> "bookstore")
              Fixtures.Books.source_strees)))

(* ---- discovery byte-parity pins ----------------------------------------- *)

(* MD5 of [mapdisc discover scenarios/FILE --json --dedup], recorded
   before the rewriting memo and the hoisted cover options: discovery
   output may not drift. amalgam and employees were re-recorded when the
   outer-join provenance line lost "(or optional participation)"; with
   the phrase put back their bodies hash to the earlier pins. amalgam, hotel and generated_mid reach the
   rewriting's 800-cover cap; with a cap of 799 the built-in hotel body
   below changes, so the pins also hold which covers the cap keeps. *)
let scenario_digests =
  [
    ("3sdb.smg", "5d142f9fb3de9b22e290c1adc9b2c125");
    ("amalgam.smg", "6de388612f51e6c4adaa4b9cacc0cfbc");
    ("books.smg", "ad246bde48566d2f2a1970271147e81f");
    ("books_archive.smg", "79cbd749ac584be5eab4e37931056879");
    ("dblp.smg", "0a4be40f22b622aece555a5341dc5d9f");
    ("employees.smg", "f261bcb505dcc32e204930065724da1b");
    ("generated_mid.smg", "622e6571cd718287e3b263bad8de7259");
    ("hotel.smg", "128ea28cfa1a9a50904eeffa2b335562");
    ("mondial.smg", "d9b7f3da5df0ad824012051f4f2e8ed8");
    ("network.smg", "c6c3c43dd72770064947a76b30a2c64b");
    ("ut.smg", "7b2b12606be5b9c644052c2d19fa5020");
  ]

(* MD5 of the served [POST /scenarios/NAME/discover?dedup=true] body of
   each preloaded built-in (every correspondence of its cases). amalgam
   was re-recorded with the provenance phrase, as above. *)
let builtin_digests =
  [
    ("3sdb", "e1a02992bfa8481880e2be8fc38ad93a");
    ("amalgam", "4547faed988dad273b53a5b2a77a9abc");
    ("dblp", "b1e9e45d26f61d586472f45aa3df4e98");
    ("hotel", "a8aa2c36a2a8c14d1f5afe315717e4e4");
    ("mondial", "df40a741b75ded8726c961562574a5db");
    ("network", "4d2479d3cef6c8d798489ff8d9b945c4");
    ("ut", "952c5e011444a01d9d6444a927f00af4");
  ]

let md5 s = Digest.to_hex (Digest.string s)

let test_scenario_digests () =
  let committed =
    let dir =
      if Sys.file_exists "scenarios" then "scenarios" else "../../../scenarios"
    in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".smg")
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "every committed scenario is pinned"
    committed (List.map fst scenario_digests);
  List.iter
    (fun (file, digest) ->
      let path = Filename.concat "scenarios" file in
      let doc =
        Smg_dsl.Parser.parse_file
          (if Sys.file_exists path then path else Filename.concat "../../.." path)
      in
      match Smg_serve.Registry.sides_of_doc doc with
      | Error msg -> Alcotest.fail (file ^ ": " ^ msg)
      | Ok (source, target) ->
          let out =
            Smg_serve.Render.discover_json ~meth:`Both ~dedup:true ~file:path
              ~source ~target ~corrs:doc.Smg_dsl.Ast.doc_corrs ()
          in
          Alcotest.(check string) (file ^ " discover body digest") digest
            (md5 out.Smg_serve.Render.dj_json))
    scenario_digests

let test_builtin_digests () =
  let reg = Smg_serve.Registry.create () in
  Smg_serve.Registry.preload_builtins reg;
  Alcotest.(check (list string)) "every built-in is pinned"
    (Smg_serve.Registry.names reg) (List.map fst builtin_digests);
  List.iter
    (fun (name, digest) ->
      let entry = Option.get (Smg_serve.Registry.find reg name) in
      let out, _ = Smg_serve.Registry.discover reg ~meth:`Both ~dedup:true entry in
      Alcotest.(check string) (name ^ " served discover body digest") digest
        (md5 out.Smg_serve.Render.dj_json))
    builtin_digests

(* The generated discovery pool perfbench times on its [generated]
   workload: sixteen fixed parameter vectors over ISA depth, reified
   relationships, partOf chains and correspondence density. *)
let pool_params =
  List.init 16 (fun i ->
      Smg_generate.Params.clamp
        {
          Smg_generate.Params.seed = 7 + i;
          isa_depth = i mod 4;
          n_roots = 3 + (i mod 3);
          reify = i / 4;
          partof = i mod 3;
          attrs_per_class = 2;
          corr_density = 0.5 +. (0.5 *. float_of_int (i mod 5) /. 4.);
          scale = 200;
        })

(* MD5 of [mapdisc discover LABEL.smg --json --dedup], run in the
   directory of [mapdisc generate ... --emit-dsl -o LABEL.smg] for each
   pool vector, recorded before the run-wide rewrite memo and the
   selection over distinct covers. gen_s21 and gen_s22 are the heaviest
   rewriting inputs. *)
let pool_digests =
  [
    ("gen_s7_i0_r0_p0_c50_n200", "4ad1cccc2876d9decc42fca9abcebb1a");
    ("gen_s8_i1_r0_p1_c63_n200", "6699f1d306fd8c96072ac0cb72090c04");
    ("gen_s9_i2_r0_p2_c75_n200", "e82c32073598ae8ad5d2328db37667b9");
    ("gen_s10_i3_r0_p0_c88_n200", "a868edad493295101fd5e5701a9e25f2");
    ("gen_s11_i0_r1_p1_c100_n200", "c19eea35fad71828e6d78c877921600a");
    ("gen_s12_i1_r1_p2_c50_n200", "bf0d4db02a173362cf46d1ce7cb0fab9");
    ("gen_s13_i2_r1_p0_c63_n200", "10e685caab7d7b91c3165f412fac4595");
    ("gen_s14_i3_r1_p1_c75_n200", "4744e88345669811a06a58ccac6ddbd4");
    ("gen_s15_i0_r2_p2_c88_n200", "bfebd662506b4754169797a5cdf156d4");
    ("gen_s16_i1_r2_p0_c100_n200", "2f35fa413ac7ede266014749cfb1990f");
    ("gen_s17_i2_r2_p1_c50_n200", "5410aa8f8b1f2b52975d346bb4ea7c79");
    ("gen_s18_i3_r2_p2_c63_n200", "93da2ec175cc8deaf04ff6df47d7c05c");
    ("gen_s19_i0_r3_p0_c75_n200", "71e30cea7a02b8d4805403826a82213f");
    ("gen_s20_i1_r3_p1_c88_n200", "948a121057ba703687afa5bdeefe82b2");
    ("gen_s21_i2_r3_p2_c100_n200", "0c7238a59fc98cd7ab0707441f343dae");
    ("gen_s22_i3_r3_p0_c50_n200", "c5927318b923eac651acbf7ef309e264");
  ]

let test_pool_digests () =
  Alcotest.(check (list string)) "every pool vector is pinned"
    (List.map Smg_generate.Params.label pool_params)
    (List.map fst pool_digests);
  List.iter2
    (fun p (label, digest) ->
      let file = label ^ ".smg" in
      let text = Smg_generate.Gen.dsl (Smg_generate.Gen.build p) in
      let doc = Smg_dsl.Parser.parse text in
      match Smg_serve.Registry.sides_of_doc doc with
      | Error msg -> Alcotest.fail (label ^ ": " ^ msg)
      | Ok (source, target) ->
          let out =
            Smg_serve.Render.discover_json ~meth:`Both ~dedup:true ~file ~source
              ~target ~corrs:doc.Smg_dsl.Ast.doc_corrs ()
          in
          Alcotest.(check string) (label ^ " discover body digest") digest
            (md5 out.Smg_serve.Render.dj_json))
    pool_params pool_digests

(* The pairwise §3 filter both discoveries share, on two small CMs: a
   partOf target connection wants a partOf source one, and a source
   connection may be at most as "many" as the target one. *)
let test_csg_compatible () =
  let module Cml = Smg_cm.Cml in
  let module Cm_graph = Smg_cm.Cm_graph in
  let module Csg = Smg_core.Csg in
  let module C = Smg_cm.Cardinality in
  Alcotest.(check bool) "1:1 fits N:M" true (Csg.leq_shape C.OneOne C.ManyMany);
  Alcotest.(check bool) "N:M does not fit N:1" false
    (Csg.leq_shape C.ManyMany C.ManyOne);
  Alcotest.(check bool) "N:1 does not fit 1:N" false
    (Csg.leq_shape C.ManyOne C.OneMany);
  let source =
    Cm_graph.compile
      (Cml.make ~name:"s"
         ~binaries:
           [
             Cml.functional ~kind:Cml.PartOf "chairs" ~src:"Dept" ~dst:"School";
             Cml.functional "reportsTo" ~src:"Dept" ~dst:"School";
             Cml.many_many "likes" ~src:"Person" ~dst:"Dept";
           ]
         [
           Cml.cls "Person" [ "pname" ];
           Cml.cls "Dept" [ "dname" ];
           Cml.cls "School" [ "sname" ];
         ])
  in
  let target =
    Cm_graph.compile
      (Cml.make ~name:"t"
         ~binaries:
           [
             Cml.functional ~kind:Cml.PartOf "leads" ~src:"Unit" ~dst:"Division";
             Cml.functional "belongsTo" ~src:"Employee" ~dst:"Unit";
           ]
         [
           Cml.cls "Employee" [ "ename" ];
           Cml.cls "Unit" [ "uname" ];
           Cml.cls "Division" [ "divname" ];
         ])
  in
  let sn = Cm_graph.class_node_exn source and tn = Cm_graph.class_node_exn target in
  let one_edge cmg a b =
    Csg.lossy_paths cmg ~max_len:1 ~src:a ~dst:b
    |> List.filter (fun (d : Csg.t) -> List.length d.Csg.c_edges = 1)
  in
  let dept_school = one_edge source (sn "Dept") (sn "School") in
  Alcotest.(check int) "two Dept-School connections" 2
    (List.length dept_school);
  let partof, plain =
    List.partition (fun (d : Csg.t) -> Csg.is_partof_path source d.Csg.c_edges)
      dept_school
  in
  let partof = List.hd partof and plain = List.hd plain in
  let leads = List.hd (one_edge target (tn "Unit") (tn "Division")) in
  let belongs = List.hd (one_edge target (tn "Employee") (tn "Unit")) in
  let likes = List.hd (one_edge source (sn "Person") (sn "Dept")) in
  let check msg expected ?use_shapes ?use_partof ~strict d1 d2 covered =
    Alcotest.(check (option (float 1e-9))) msg expected
      (Csg.compatible ?use_shapes ?use_partof ~strict_partof:strict ~source
         ~target d1 d2 ~penalty:1. covered)
  in
  let ds = [ (sn "Dept", tn "Unit"); (sn "School", tn "Division") ] in
  check "partOf matches partOf" (Some 1.) ~strict:true partof leads ds;
  check "plain for partOf rejects when strict" None ~strict:true plain leads ds;
  check "plain for partOf costs 5 when lax" (Some 6.) ~strict:false plain leads
    ds;
  check "partOf filter off" (Some 1.) ~use_partof:false ~strict:true plain
    leads ds;
  let pd = [ (sn "Person", tn "Employee"); (sn "Dept", tn "Unit") ] in
  check "N:M source for N:1 target rejects" None ~strict:true likes belongs pd;
  check "shape filter off" (Some 1.) ~use_shapes:false ~strict:true likes
    belongs pd;
  check "one covered pair has nothing to compare" (Some 1.) ~strict:true likes
    belongs
    [ (sn "Person", tn "Employee") ]

(* A fuel-budgeted pooled discovery: the candidates printed with
   [Mapping.pp], whether the run was exact, and whether the fuel ran out
   — at 1 and 4 domains, recorded before the rewrite memo became shared
   by every task of a run. Rewriting spends no fuel, so sharing its
   memo across tasks may not move what a budget buys. Re-recorded when
   [Mapping.pp] boxed its queries: with whitespace removed (and the
   dropped provenance phrase put back into amalgam's) each text equals
   the earlier one. *)
let bounded_digests =
  [
    ("3sdb.smg", 20_000, false, "42e9730e601381b1c7d561a15a2d7bfe");
    ("3sdb.smg", 100_000, false, "9e186abb6d10517318caa7aa527741f9");
    ("3sdb.smg", 300_000, true, "db694f092cf26887aeaaac5610c81157");
    ("amalgam.smg", 100_000, false, "bd0a7d3b9837a0c5676b9cfb44fe2690");
    ("amalgam.smg", 300_000, true, "161fe9f30a6f1dcffc81cc84995b0e4c");
  ]

let test_bounded_domains () =
  List.iter
    (fun (file, fuel, exact, digest) ->
      let path = Filename.concat "scenarios" file in
      let doc =
        Smg_dsl.Parser.parse_file
          (if Sys.file_exists path then path else Filename.concat "../../.." path)
      in
      let source, target =
        Result.get_ok (Smg_serve.Registry.sides_of_doc doc)
      in
      List.iter
        (fun domains ->
          let what = Printf.sprintf "%s fuel %d, %d domain(s)" file fuel domains in
          let budget = Smg_robust.Budget.create ~fuel () in
          let o =
            Smg_parallel.Pool.with_pool ~domains (fun pool ->
                Discover.discover_bounded ~budget ~pool ~source ~target
                  ~corrs:doc.Smg_dsl.Ast.doc_corrs ())
          in
          Alcotest.(check bool) (what ^ ": exact") exact o.Discover.o_exact;
          Alcotest.(check bool) (what ^ ": fuel ran out") (not exact)
            (Smg_robust.Budget.exhausted budget <> None);
          Alcotest.(check string) (what ^ ": candidates digest") digest
            (md5
               (String.concat "\n"
                  (List.map (Fmt.str "%a" Mapping.pp) o.Discover.o_mappings))))
        [ 1; 4 ])
    bounded_digests

(* The text report [mapdisc discover scenarios/books.smg] prints for the
   semantic candidate: each query and the covers list break as a unit,
   not at every comma. *)
let test_books_report () =
  let path = Filename.concat "scenarios" "books.smg" in
  let doc =
    Smg_dsl.Parser.parse_file
      (if Sys.file_exists path then path else Filename.concat "../../.." path)
  in
  let source, target = Result.get_ok (Smg_serve.Registry.sides_of_doc doc) in
  match Discover.discover ~source ~target ~corrs:doc.Smg_dsl.Ast.doc_corrs () with
  | [ m ] ->
      Alcotest.(check string) "Mapping.pp"
        {|semantic (score 10.05):
  src: rw(v1, v0) :- writes(v0, id:x4:0), soldAt(id:x4:0, v1), person(v0),
         bookstore(v1)
  tgt: rw(v1, v0) :- hasBookSoldAt(v0, v1)
  covers: bookstore.sid ↔ hasBookSoldAt.sid,
            person.pname ↔ hasBookSoldAt.aname
  · §3.3: non-functional path with 2 lossy join(s) for a many-many target connection
  · Case A: target CSG is the s-tree of hasBookSoldAt
  · source connection: Person --writes_author⁻[0..*]--> writes, writes --writes_work[1..1]--> Book, Book --soldAt_item⁻[0..*]--> soldAt, soldAt --soldAt_store[1..1]--> Bookstore
  · target connection: hasBookSoldAt --hb_author[1..1]--> Author, hasBookSoldAt --hb_store[1..1]--> Bookstore|}
        (Fmt.str "%a" Mapping.pp m)
  | ms -> Alcotest.failf "books: %d semantic candidates, expected 1" (List.length ms)

let suite =
  [
    ( "discover",
      [
        Alcotest.test_case "Example 1.1: M5" `Quick test_books_m5;
        Alcotest.test_case "head safety" `Quick test_books_m5_head_safety;
        Alcotest.test_case "M5 executes as data exchange" `Quick test_books_tgd_executes;
        Alcotest.test_case "Example 1.2: ISA merge + outer" `Quick test_employees_isa_merge;
        Alcotest.test_case "Example 3.1: Case A.1" `Quick test_projects_case_a1;
        Alcotest.test_case "Example 3.1: Case A.2" `Quick test_projects_case_a2;
        Alcotest.test_case "trivial mapping" `Quick test_single_correspondence_trivial;
        Alcotest.test_case "empty correspondences" `Quick test_no_correspondences;
        Alcotest.test_case "deduplication" `Quick test_candidates_deduplicated;
        Alcotest.test_case "max candidates" `Quick test_max_candidates_respected;
        Alcotest.test_case "outer variants merge via Skolems" `Quick
          test_outer_variants_exchange;
        Alcotest.test_case "provenance recorded" `Quick test_provenance_recorded;
        Alcotest.test_case "Case B provenance" `Quick test_case_b_provenance;
        Alcotest.test_case "side validation" `Quick test_side_requires_stree_per_table;
        Alcotest.test_case "scenario discover digests" `Quick test_scenario_digests;
        Alcotest.test_case "built-in discover digests" `Quick test_builtin_digests;
        Alcotest.test_case "generated pool discover digests" `Quick
          test_pool_digests;
        Alcotest.test_case "Csg: shape and partOf compatibility" `Quick
          test_csg_compatible;
        Alcotest.test_case "bounded discovery at 1 and 4 domains" `Quick
          test_bounded_domains;
        Alcotest.test_case "books text report" `Quick test_books_report;
      ] );
  ]
