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
   below changes, so the pins also hold which covers the cap keeps.
   Every pin here was re-recorded when [Atom.pp] boxed each atom, tgds
   broke between atoms and [Algebra.pp] gained an indenting box: with
   whitespace removed, each body equals the earlier one. *)
let scenario_digests =
  [
    ("3sdb.smg", "415a455eb426cd605371902c16c60f5e");
    ("amalgam.smg", "a6f9f0d6790484c817f7249c612a9a50");
    ("books.smg", "068daad2c50c8537fe00ae244edb849f");
    ("books_archive.smg", "7902efa9972e80f4363d7f68cf4e097f");
    ("dblp.smg", "b718deaf076e7e5f698ac93a4723e7b2");
    ("employees.smg", "2352c45f575958e22777cdc186a3858f");
    ("generated_mid.smg", "476ac62c36cfca27720614e2988e5e6a");
    ("hotel.smg", "0e4cfa1ed62a8ab6e3dfd6f56500268d");
    ("mondial.smg", "67e6cb5cfaaaebd2660fd676ddc1e66c");
    ("network.smg", "d01b03dffda41ef15369ed20bb3891c6");
    ("ut.smg", "93e276433539cee761cdfbc65ee030a1");
  ]

(* MD5 of the served [POST /scenarios/NAME/discover?dedup=true] body of
   each preloaded built-in (every correspondence of its cases). amalgam
   was re-recorded with the provenance phrase, and all of them with the
   atom and algebra boxes, as above. *)
let builtin_digests =
  [
    ("3sdb", "5309b9a32aa8806aad7f148bc73d8b66");
    ("amalgam", "c743788c32319a12dad0a526c35cfb3b");
    ("dblp", "6b69fc19357132613f74720bcbf3dd32");
    ("hotel", "5e2d05393ac12d5ca579fd9bdf83f5e1");
    ("mondial", "103f23b779e2879704d67c56a6412347");
    ("network", "6a807f1179cdf41a47aa51f2636f3622");
    ("ut", "1bbef48e360eec3d79e0982ef4a36009");
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
   selection over distinct covers, and re-recorded with the atom and
   algebra boxes as above. gen_s21 and gen_s22 are the heaviest
   rewriting inputs. *)
let pool_digests =
  [
    ("gen_s7_i0_r0_p0_c50_n200", "2cb7345658ec158ba42adc388179e0c5");
    ("gen_s8_i1_r0_p1_c63_n200", "e087c4dbf9d3db5ea3ad4b4b118ba465");
    ("gen_s9_i2_r0_p2_c75_n200", "496a7ff6810947f93f938a563a9340ca");
    ("gen_s10_i3_r0_p0_c88_n200", "b3b27595bc28c8f0dfc1bb1ef6aad6ef");
    ("gen_s11_i0_r1_p1_c100_n200", "fdcf5f1783f5e9f909a3bd940c235ada");
    ("gen_s12_i1_r1_p2_c50_n200", "1f2d009a2e8d2033b138851dae6e236e");
    ("gen_s13_i2_r1_p0_c63_n200", "17b7ee08a7b342aad7fe38f93b6e6ca5");
    ("gen_s14_i3_r1_p1_c75_n200", "3c869d7cb6df042a3e65d14be60da563");
    ("gen_s15_i0_r2_p2_c88_n200", "99c4fc2530aeb1a7f3f9cba3098bdd11");
    ("gen_s16_i1_r2_p0_c100_n200", "43d763df8918bbd405db6b9fd0d9d286");
    ("gen_s17_i2_r2_p1_c50_n200", "7fad3d62602c5ddc782461ca24ba44fe");
    ("gen_s18_i3_r2_p2_c63_n200", "824fe6860b8dffe51f01fa446ac550b8");
    ("gen_s19_i0_r3_p0_c75_n200", "c19875eaec163b0d7d17d034a937d33a");
    ("gen_s20_i1_r3_p1_c88_n200", "feb693301fb7434c717c242658f67480");
    ("gen_s21_i2_r3_p2_c100_n200", "d9f07e0507d06df5db3ba428ab563094");
    ("gen_s22_i3_r3_p0_c50_n200", "8ca15c5b895da77b5f79006041c085cf");
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
   the earlier one; and again, whitespace-equal, when [Atom.pp] boxed
   each atom. *)
let bounded_digests =
  [
    ("3sdb.smg", 20_000, false, "7b5efcff7e5d280e85d50b816eeaf7cc");
    ("3sdb.smg", 100_000, false, "6a8f2e782cc98e50e65b260fabe984f2");
    ("3sdb.smg", 300_000, true, "f7483e0eaac6e26beedbcf2ac67421e7");
    ("amalgam.smg", 100_000, false, "b5bbad10721f5c3e4d55790bc9133445");
    ("amalgam.smg", 300_000, true, "5402ae9559e0acfb1c65711f0140dc93");
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
   semantic candidate: each query, the covers list, each atom of the tgd
   and the source algebra break as a unit, not at every comma, and the
   algebra's continuation lines are indented. *)
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
        (Fmt.str "%a" Mapping.pp m);
      Alcotest.(check string) "tgd and source algebra lines"
        {|   tgd: semantic: writes(v0, id:x4:0) ∧ soldAt(id:x4:0, v1) ∧
          person(v0) ∧ bookstore(v1) → hasBookSoldAt(v0, v1)
   source algebra: π[v1, v0]((((ρ[pname→v0, bid→id:x4:0](writes)
                     ⋈ ρ[bid→id:x4:0, sid→v1](soldAt))
                     ⋈ ρ[pname→v0](person))
                     ⋈ ρ[sid→v1](bookstore)))|}
        (Fmt.str "   tgd: %a@\n   source algebra: %a"
           Smg_cq.Dependency.pp_tgd (Mapping.to_tgd m)
           Smg_relational.Algebra.pp
           (Mapping.src_algebra source.Discover.schema m))
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
