(* Robustness suite: resource budgets, typed diagnostics, degradation
   ladders, and never-crash fuzzing over malformed inputs.

   The fuzz volumes scale with SMG_FUZZ_COUNT (default 1000 mutations);
   CI smoke runs set it low, nightly/thorough runs raise it. *)

module Budget = Smg_robust.Budget
module Diag = Smg_robust.Diag
module Digraph = Smg_graph.Digraph
module Steiner = Smg_graph.Steiner
module Paths = Smg_graph.Paths
module Schema = Smg_relational.Schema
module Parser = Smg_dsl.Parser
module Ast = Smg_dsl.Ast
module Design = Smg_er2rel.Design
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Engine = Smg_exchange.Engine

let fuzz_count =
  match Sys.getenv_opt "SMG_FUZZ_COUNT" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1000)
  | None -> 1000

(* ---- budgets ----------------------------------------------------------- *)

let test_budget_fuel () =
  let b = Budget.create ~fuel:5 () in
  Alcotest.(check (option int)) "full tank" (Some 5) (Budget.remaining_fuel b);
  for _ = 1 to 5 do
    Alcotest.(check bool) "within fuel" true (Budget.tick b)
  done;
  Alcotest.(check bool) "sixth tick exhausts" false (Budget.tick b);
  Alcotest.(check bool) "sticky" false (Budget.tick b);
  Alcotest.(check bool) "exhausted by fuel" true
    (Budget.exhausted b = Some Budget.Fuel)

let test_budget_burn () =
  let b = Budget.create ~fuel:100 () in
  Alcotest.(check bool) "burn within" true (Budget.burn b 100);
  Alcotest.(check bool) "burn past" false (Budget.burn b 1);
  let b2 = Budget.create ~fuel:10 () in
  Alcotest.(check bool) "overdraft in one burn" false (Budget.burn b2 11)

let test_budget_deadline () =
  (* a deadline strictly in the past trips at the first wall-clock check
     (0. could compare equal within the clock's quantum) *)
  let b = Budget.create ~deadline_ms:(-1.) ~interval:1 () in
  ignore (Budget.tick b);
  Alcotest.(check bool) "deadline trips" true
    (Budget.exhausted b = Some Budget.Deadline);
  Alcotest.(check bool) "ok reports it" false (Budget.ok b)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    ignore (Budget.tick b)
  done;
  Alcotest.(check bool) "never exhausts" true (Budget.exhausted b = None);
  Alcotest.(check (option int)) "no fuel gauge" None (Budget.remaining_fuel b)

let test_budget_exn () =
  let b = Budget.create ~fuel:3 () in
  (match Budget.burn_exn b 10 with
  | () -> Alcotest.fail "expected Exhausted"
  | exception Budget.Exhausted Budget.Fuel -> ());
  match Budget.tick_exn b with
  | () -> Alcotest.fail "stays exhausted"
  | exception Budget.Exhausted Budget.Fuel -> ()

(* ---- diagnostics ------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_diag_render () =
  let d =
    Diag.errorf
      ~loc:(Diag.loc ~file:"x.smg" ~line:3 ~col:7 ())
      ~subject:"table t" Diag.Parse "unexpected %s" "token"
  in
  let s = Fmt.str "%a" Diag.pp d in
  Alcotest.(check bool) "located" true
    (String.length s >= 10 && String.sub s 0 10 = "x.smg:3:7:");
  Alcotest.(check bool) "carries subject and message" true
    (contains ~sub:"table t" s && contains ~sub:"unexpected token" s)

let test_diag_counts () =
  let ds =
    [
      Diag.errorf Diag.Parse "e1";
      Diag.warnf Diag.Discover "w1";
      Diag.infof Diag.Exchange "i1";
      Diag.errorf Diag.Validate "e2";
    ]
  in
  Alcotest.(check bool) "counts" true (Diag.count ds = (2, 1, 1));
  Alcotest.(check bool) "has errors" true (Diag.has_errors ds);
  Alcotest.(check int) "exit code" 2 (Diag.exit_code ds);
  Alcotest.(check int) "clean exit" 0
    (Diag.exit_code [ Diag.warnf Diag.Discover "w" ])

let test_diag_of_exn () =
  let d = Diag.of_exn ~subject:"s" Diag.Discover (Invalid_argument "boom") in
  Alcotest.(check bool) "error severity" true (Diag.is_error d);
  Alcotest.(check bool) "carries message" true
    (contains ~sub:"boom" d.Diag.d_message)

let test_diag_collector () =
  let c = Diag.collector () in
  Diag.add c (Diag.warnf Diag.Verify "first");
  Diag.add c (Diag.errorf Diag.Verify "second");
  match Diag.diags c with
  | [ a; b ] ->
      Alcotest.(check bool) "emission order" true
        (a.Diag.d_message = "first" && b.Diag.d_message = "second")
  | _ -> Alcotest.fail "expected two diagnostics"

(* ---- Steiner degradation ---------------------------------------------- *)

(* path graph 0 -> 1 -> 2 -> 3 with unit costs, plus a direct 0 -> 3 *)
let line_graph () =
  Digraph.make ~n:4 [ (0, 1, ()); (1, 2, ()); (2, 3, ()); (0, 3, ()) ]

let unit_cost _ = Some 1.

let test_arborescence_empty_terminals () =
  let g = line_graph () in
  Alcotest.(check bool) "None, not Invalid_argument" true
    (Steiner.arborescence g ~cost:unit_cost ~root:0 ~terminals:[] = None)

let test_minimal_trees_empty () =
  let g = line_graph () in
  let sol =
    Steiner.minimal_trees_bounded g ~cost:unit_cost ~roots:[ 0 ] ~terminals:[]
  in
  Alcotest.(check bool) "empty and exact" true
    (sol.Steiner.trees = [] && sol.Steiner.exact)

let test_steiner_fallback () =
  let g = line_graph () in
  (* fuel too small for the DP but enough for Dijkstra fallback *)
  let b = Budget.create ~fuel:1 () in
  let sol =
    Steiner.minimal_trees_bounded ~budget:b g ~cost:unit_cost ~roots:[ 0 ]
      ~terminals:[ 2; 3 ]
  in
  Alcotest.(check bool) "degraded" true (not sol.Steiner.exact);
  Alcotest.(check bool) "still produces a tree" true (sol.Steiner.trees <> []);
  List.iter
    (fun (t : Steiner.tree) ->
      let nodes = Steiner.tree_nodes g t in
      Alcotest.(check bool) "covers terminals" true
        (List.mem 2 nodes && List.mem 3 nodes))
    sol.Steiner.trees

let test_steiner_bounded_matches_exact () =
  let g = line_graph () in
  let unbudgeted =
    Steiner.minimal_trees_bounded g ~cost:unit_cost ~roots:[ 0 ]
      ~terminals:[ 2; 3 ]
  in
  Alcotest.(check bool) "unbudgeted search is exact" true
    unbudgeted.Steiner.exact;
  let exact = unbudgeted.Steiner.trees in
  let sol =
    Steiner.minimal_trees_bounded
      ~budget:(Budget.create ~fuel:1_000_000 ())
      g ~cost:unit_cost ~roots:[ 0 ] ~terminals:[ 2; 3 ]
  in
  Alcotest.(check bool) "ample budget stays exact" true sol.Steiner.exact;
  Alcotest.(check bool) "same trees" true (sol.Steiner.trees = exact)

let test_paths_budget_truncates () =
  let g = line_graph () in
  let b = Budget.create ~fuel:0 () in
  let ps =
    Paths.simple_paths ~budget:b g ~src:0 ~dst:3 ~max_len:5 ~ok:(fun _ -> true)
  in
  Alcotest.(check bool) "no crash, truncated enumeration" true
    (List.length ps
    <= List.length
         (Paths.simple_paths g ~src:0 ~dst:3 ~max_len:5 ~ok:(fun _ -> true)))

(* ---- provenance flag --------------------------------------------------- *)

let test_mark_approximate () =
  let q =
    Smg_cq.Query.make
      ~head:[ Smg_cq.Atom.Var "x" ]
      [ Smg_cq.Atom.atom "t" [ Smg_cq.Atom.Var "x" ] ]
  in
  let m =
    Mapping.make ~name:"m" ~src_query:q ~tgt_query:q
      ~covered:[ Mapping.corr ~src:("t", "x") ~tgt:("t", "x") ]
      ()
  in
  Alcotest.(check bool) "initially exact" false (Mapping.is_approximate m);
  let m1 = Mapping.mark_approximate "budget ran dry" m in
  Alcotest.(check bool) "flagged" true (Mapping.is_approximate m1);
  let m2 = Mapping.mark_approximate "again" m1 in
  Alcotest.(check bool) "idempotent" true
    (m2.Mapping.provenance = m1.Mapping.provenance);
  let m3 = Mapping.rename "other" m1 in
  Alcotest.(check bool) "survives rename" true (Mapping.is_approximate m3)

(* ---- parser fuzzing ---------------------------------------------------- *)

(* tests run from _build/default/test under [dune runtest], from the
   project root under [dune exec] — probe both *)
let in_tree path =
  if Sys.file_exists path then path else Filename.concat "../../.." path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let books_src = lazy (read_file (in_tree "scenarios/books.smg"))

(* parse_result must never raise, whatever the input *)
let never_raises src =
  match Parser.parse_result ~file:"fuzz.smg" src with
  | Ok _ -> true
  | Error d -> d.Diag.d_severity = Diag.Error && d.Diag.d_stage = Diag.Parse
  | exception e ->
      Alcotest.failf "escaped exception %s on %S" (Printexc.to_string e)
        (String.sub src 0 (min 80 (String.length src)))

let test_fuzz_truncations () =
  let src = Lazy.force books_src in
  let n = String.length src in
  let step = max 1 (n / 400) in
  let i = ref 0 in
  while !i <= n do
    ignore (never_raises (String.sub src 0 !i));
    i := !i + step
  done

(* deterministic LCG so failures reproduce *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    (!state lsr 16) mod bound

let test_fuzz_mutations () =
  let src = Lazy.force books_src in
  let rand = lcg 0x5eed in
  let n = String.length src in
  for _ = 1 to fuzz_count do
    let b = Bytes.of_string src in
    (* 1-4 byte mutations: overwrite with arbitrary bytes *)
    for _ = 0 to rand 4 do
      Bytes.set b (rand n) (Char.chr (rand 256))
    done;
    ignore (never_raises (Bytes.to_string b))
  done

let corpus_dir () = in_tree "test/corpus"

let test_fuzz_corpus () =
  let dir = corpus_dir () in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".smg")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length entries >= 8);
  List.iter
    (fun f -> ignore (never_raises (read_file (Filename.concat dir f))))
    entries

let test_corpus_crash_classes () =
  (* the known-bad fixtures must fail as *located parse* diagnostics *)
  let expect_error f =
    let src = read_file (Filename.concat (corpus_dir ()) f) in
    match Parser.parse_result ~file:f src with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" f
    | Error d ->
        Alcotest.(check bool) (f ^ " is an error") true (Diag.is_error d)
  in
  List.iter expect_error
    [
      "truncated_schema.smg";
      "bad_char.smg";
      "bad_copy_index.smg";
      "missing_type.smg";
      "dup_table.smg";
      "unbalanced.smg";
      "stray_bytes.smg";
    ]

let test_corpus_validate_classes () =
  (* fixtures that parse fine but must be caught by the validate stage *)
  let parse f =
    match
      Parser.parse_result ~file:f (read_file (Filename.concat (corpus_dir ()) f))
    with
    | Ok doc -> doc
    | Error d -> Alcotest.failf "%s should parse: %a" f Diag.pp d
  in
  (* semantics over a class absent from the CM *)
  let doc = parse "unknown_class.smg" in
  let cmg = Smg_cm.Cm_graph.compile (List.hd doc.Ast.doc_cms) in
  let tbl = List.hd (List.hd doc.Ast.doc_schemas).Schema.tables in
  let st = (List.hd doc.Ast.doc_semantics).Ast.sem_stree in
  (match Smg_semantics.Stree.validate_result cmg tbl st with
  | Ok () -> Alcotest.fail "unknown class should not validate"
  | Error msg ->
      Alcotest.(check bool) "diagnosed" true (String.length msg > 0));
  (* correspondence over a column no s-tree maps: caught by lint *)
  let doc = parse "unknown_corr_column.smg" in
  match (doc.Ast.doc_schemas, doc.Ast.doc_cms, doc.Ast.doc_semantics) with
  | [ s_schema; t_schema ], [ s_cm; t_cm ], sems ->
      let strees_for (schema : Schema.t) =
        List.filter_map
          (fun (b : Ast.semantics_block) ->
            if
              List.exists
                (fun (t : Schema.table) ->
                  String.equal t.Schema.tbl_name b.Ast.sem_table)
                schema.Schema.tables
            then Some b.Ast.sem_stree
            else None)
          sems
      in
      let source =
        Discover.side ~schema:s_schema ~cm:s_cm (strees_for s_schema)
      in
      let target =
        Discover.side ~schema:t_schema ~cm:t_cm (strees_for t_schema)
      in
      let ds = Discover.lint ~source ~target ~corrs:doc.Ast.doc_corrs in
      Alcotest.(check bool) "lint flags the correspondence" true
        (Diag.has_errors ds)
  | _ -> Alcotest.fail "unexpected fixture shape"

(* ---- end-to-end: parse → validate → discover → exchange never crashes -- *)

let corrupt_corrs rand (src : Schema.t) (tgt : Schema.t) =
  let columns (s : Schema.t) =
    List.concat_map
      (fun (t : Schema.table) ->
        List.map (fun c -> (t.Schema.tbl_name, c)) (Schema.column_names t))
      s.Schema.tables
  in
  let sc = Array.of_list (columns src) and tc = Array.of_list (columns tgt) in
  let pick arr junk =
    (* mostly real columns, sometimes garbage that must be diagnosed *)
    if Array.length arr = 0 || rand 4 = 0 then junk
    else arr.(rand (Array.length arr))
  in
  List.init
    (1 + rand 3)
    (fun i ->
      Mapping.corr
        ~src:(pick sc ("ghost_table", Printf.sprintf "ghost%d" i))
        ~tgt:(pick tc ("phantom", "col")))
  |> List.sort_uniq compare

let prop_pipeline_never_crashes =
  QCheck.Test.make ~name:"bounded pipeline never crashes, respects deadline"
    ~count:(max 20 (fuzz_count / 20))
    Test_fuzz.arb_scenario
    (fun (src_cm, tgt_cm, src_cfg, tgt_cfg, seed) ->
      let src_schema, src_strees = Design.design ~config:src_cfg src_cm in
      let tgt_schema, tgt_strees = Design.design ~config:tgt_cfg tgt_cm in
      let source = Discover.side ~schema:src_schema ~cm:src_cm src_strees in
      let target = Discover.side ~schema:tgt_schema ~cm:tgt_cm tgt_strees in
      let rand = lcg seed in
      let corrs = corrupt_corrs rand src_schema tgt_schema in
      QCheck.assume (corrs <> []);
      (* lint never raises *)
      let (_ : Diag.t list) = Discover.lint ~source ~target ~corrs in
      let deadline_ms = 150. in
      let budget =
        Budget.create ~deadline_ms ~fuel:(500 + rand 5_000) ()
      in
      let o, elapsed =
        Smg_robust.Clock.time (fun () ->
            Discover.discover_bounded ~budget ~source ~target ~corrs ())
      in
      let elapsed_ms = 1000. *. elapsed in
      (* generous slack: the point is "no unbounded overrun", checked at
         interval granularity, not hard real-time *)
      if elapsed_ms > deadline_ms +. 2_000. then
        QCheck.Test.fail_reportf "deadline overrun: %.0f ms" elapsed_ms;
      (* a clean run must report exactness; a degraded one must not *)
      if Budget.exhausted budget = None && o.Discover.o_diags = [] then
        assert o.Discover.o_exact;
      (* exchange the best candidate under a tiny budget: must complete
         or stop cleanly, never raise *)
      (match o.Discover.o_mappings with
      | [] -> ()
      | best :: _ ->
          let inst =
            Smg_eval.Witness.populate ~rows_per_table:5 ~seed src_schema
          in
          let eb = Budget.create ~fuel:2_000 () in
          match
            Engine.run_bounded ~budget:eb ~source:src_schema
              ~target:tgt_schema
              ~mappings:[ Mapping.to_tgd best ]
              inst
          with
          | Engine.Complete _ | Engine.Budget_exhausted _ | Engine.Failed _ ->
              ());
      true)

(* Witness sources are ground and valid by construction: on both sides
   of every built-in, every committed scenario, the 16 generated pool
   documents and the corpus RIC cycle (the schema behind the property
   above's slow seed, QCHECK_SEED=4, whose repair once grew ~4.6x per
   round), every table holds exactly its rows, keys and RICs hold, and
   no cell is a labelled null. *)
let test_witness_valid () =
  let parse path =
    match Parser.parse_result ~file:path (read_file path) with
    | Ok doc -> doc.Ast.doc_schemas
    | Error d -> Alcotest.failf "%s should parse: %a" path Diag.pp d
  in
  let scenarios =
    let dir = in_tree "scenarios" in
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".smg")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  let schemas =
    List.concat_map
      (fun (s : Smg_eval.Scenario.t) ->
        [ s.Smg_eval.Scenario.source.Discover.schema;
          s.Smg_eval.Scenario.target.Discover.schema ])
      (Smg_eval.Datasets.all ())
    @ List.concat_map
        (fun p ->
          let g = Smg_generate.Gen.build p in
          [ g.Smg_generate.Gen.g_source.Discover.schema;
            g.Smg_generate.Gen.g_target.Discover.schema ])
        Test_discover.pool_params
    @ List.concat_map parse
        (scenarios @ [ Filename.concat (corpus_dir ()) "witness_ric_cycle.smg" ])
  in
  List.iter
    (fun (schema : Schema.t) ->
      List.iter
        (fun size ->
          let rows = max 1 (size / List.length schema.Schema.tables) in
          let inst = Smg_eval.Witness.populate ~rows_per_table:rows schema in
          let what = Printf.sprintf "%s at size %d" schema.Schema.schema_name size in
          List.iter
            (fun (t : Schema.table) ->
              Alcotest.(check int)
                (what ^ ": rows of " ^ t.Schema.tbl_name)
                rows
                (Smg_relational.Instance.cardinality inst t.Schema.tbl_name))
            schema.Schema.tables;
          Alcotest.(check int) (what ^ ": dangling references") 0
            (List.length (Smg_relational.Instance.check_rics schema inst));
          Alcotest.(check int) (what ^ ": key violations") 0
            (List.length (Smg_relational.Instance.check_keys schema inst));
          if
            Array.exists
              (fun (_, tup) -> Array.exists Smg_relational.Value.is_null tup)
              (Smg_verify.Icore.facts inst)
          then Alcotest.failf "%s: a labelled null" what)
        [ 64; 1000; 5000 ])
    schemas

(* ---- acceptance: tiny fuel on a real domain ---------------------------- *)

let test_tiny_fuel_mondial () =
  let scen =
    List.find
      (fun (s : Smg_eval.Scenario.t) ->
        s.Smg_eval.Scenario.scen_name = "Mondial")
      (Smg_eval.Datasets.all ())
  in
  let case = List.hd scen.Smg_eval.Scenario.cases in
  let budget = Budget.create ~fuel:200 () in
  let o =
    Discover.discover_bounded ~budget ~source:scen.Smg_eval.Scenario.source
      ~target:scen.Smg_eval.Scenario.target
      ~corrs:case.Smg_eval.Scenario.corrs ()
  in
  Alcotest.(check bool) "budget exhausted" true
    (Budget.exhausted budget <> None);
  Alcotest.(check bool) "still returns candidates" true
    (o.Discover.o_mappings <> []);
  Alcotest.(check bool) "not exact" false o.Discover.o_exact;
  Alcotest.(check bool) "degraded candidates flagged approximate" true
    (List.exists Mapping.is_approximate o.Discover.o_mappings);
  Alcotest.(check bool) "summarized in diagnostics" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.d_severity = Diag.Warning)
       o.Discover.o_diags)

let test_unbounded_equals_legacy () =
  let scen =
    List.find
      (fun (s : Smg_eval.Scenario.t) -> s.Smg_eval.Scenario.scen_name = "DBLP")
      (Smg_eval.Datasets.all ())
  in
  let case = List.hd scen.Smg_eval.Scenario.cases in
  let source = scen.Smg_eval.Scenario.source
  and target = scen.Smg_eval.Scenario.target in
  let corrs = case.Smg_eval.Scenario.corrs in
  let legacy = Discover.discover ~source ~target ~corrs () in
  let o = Discover.discover_bounded ~source ~target ~corrs () in
  Alcotest.(check bool) "exact without budget" true o.Discover.o_exact;
  Alcotest.(check int) "same candidate count" (List.length legacy)
    (List.length o.Discover.o_mappings);
  Alcotest.(check bool) "same scores" true
    (List.for_all2
       (fun (a : Mapping.t) (b : Mapping.t) ->
         a.Mapping.score = b.Mapping.score)
       legacy o.Discover.o_mappings)

let test_lint_clean_scenario () =
  let scen =
    List.find
      (fun (s : Smg_eval.Scenario.t) -> s.Smg_eval.Scenario.scen_name = "DBLP")
      (Smg_eval.Datasets.all ())
  in
  let case = List.hd scen.Smg_eval.Scenario.cases in
  let ds =
    Discover.lint ~source:scen.Smg_eval.Scenario.source
      ~target:scen.Smg_eval.Scenario.target
      ~corrs:case.Smg_eval.Scenario.corrs
  in
  Alcotest.(check bool) "no errors on a curated scenario" false
    (Diag.has_errors ds)

let test_lint_flags_bad_corr () =
  let scen =
    List.find
      (fun (s : Smg_eval.Scenario.t) -> s.Smg_eval.Scenario.scen_name = "DBLP")
      (Smg_eval.Datasets.all ())
  in
  let ds =
    Discover.lint ~source:scen.Smg_eval.Scenario.source
      ~target:scen.Smg_eval.Scenario.target
      ~corrs:[ Mapping.corr ~src:("nope", "x") ~tgt:("nada", "y") ]
  in
  Alcotest.(check bool) "bad correspondence diagnosed" true
    (Diag.has_errors ds)

(* ---- exchange budgets -------------------------------------------------- *)

let test_exchange_budget () =
  let scen =
    List.find
      (fun (s : Smg_eval.Scenario.t) -> s.Smg_eval.Scenario.scen_name = "DBLP")
      (Smg_eval.Datasets.all ())
  in
  let source = scen.Smg_eval.Scenario.source.Discover.schema
  and target = scen.Smg_eval.Scenario.target.Discover.schema in
  let case = List.hd scen.Smg_eval.Scenario.cases in
  let mappings =
    match
      Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen case
    with
    | [] -> Alcotest.fail "no mapping discovered for DBLP"
    | best :: _ -> [ Mapping.to_tgd best ]
  in
  let inst = Smg_eval.Witness.populate ~rows_per_table:30 ~seed:7 source in
  (* ample budget: same result as the unbounded run *)
  (match
     Engine.run_bounded
       ~budget:(Budget.create ~fuel:10_000_000 ())
       ~source ~target ~mappings inst
   with
  | Engine.Complete rep ->
      let unbounded =
        match Engine.run ~source ~target ~mappings inst with
        | Ok r -> r
        | Error msg -> Alcotest.failf "unbounded run failed: %s" msg
      in
      Alcotest.(check int) "same target size"
        (Smg_relational.Instance.total_tuples
           unbounded.Engine.r_target)
        (Smg_relational.Instance.total_tuples rep.Engine.r_target)
  | Engine.Budget_exhausted _ -> Alcotest.fail "ample budget exhausted"
  | Engine.Failed msg -> Alcotest.failf "exchange failed: %s" msg);
  (* starvation budget: clean partial stop *)
  match
    Engine.run_bounded
      ~budget:(Budget.create ~fuel:50 ())
      ~source ~target ~mappings inst
  with
  | Engine.Budget_exhausted (Budget.Fuel, rep) ->
      Alcotest.(check bool) "partial flagged incomplete" false
        rep.Engine.r_complete
  | Engine.Budget_exhausted (Budget.Deadline, _) ->
      Alcotest.fail "expected fuel exhaustion"
  | Engine.Complete _ -> Alcotest.fail "tiny budget completed"
  | Engine.Failed msg -> Alcotest.failf "exchange failed: %s" msg

(* ---- fault plane -------------------------------------------------------- *)

module Fault = Smg_robust.Fault
module Retry = Smg_robust.Retry
module Breaker = Smg_robust.Breaker

let test_fault_replay () =
  (* the same seed replays the same schedule, consultation by
     consultation, whatever the interleaving of other points *)
  let plan =
    [
      (Fault.Parse, { Fault.p_raise = 0.3; p_delay = 0.2; delay_s = 0.; p_short = 0.1 });
      (Fault.Engine_step, { Fault.p_raise = 0.5; p_delay = 0.; delay_s = 0.; p_short = 0. });
    ]
  in
  let consult f =
    for i = 1 to 200 do
      ignore (Fault.decide f Fault.Parse);
      if i mod 3 = 0 then ignore (Fault.decide f Fault.Engine_step)
    done
  in
  let a = Fault.create ~seed:99 plan and b = Fault.create ~seed:99 plan in
  consult a;
  consult b;
  Alcotest.(check string) "same digest" (Fault.schedule_digest a)
    (Fault.schedule_digest b);
  Alcotest.(check bool) "schedules equal" true
    (Fault.schedule a = Fault.schedule b);
  let c = Fault.create ~seed:100 plan in
  consult c;
  Alcotest.(check bool) "different seed diverges" true
    (Fault.schedule_digest a <> Fault.schedule_digest c)

let test_fault_bounds () =
  let n = 2000 in
  let consult_all f p = for _ = 1 to n do ignore (Fault.decide f p) done in
  (* p = 0: never fires; absent from the plan: never fires *)
  let never = Fault.create ~seed:1 [ (Fault.Parse, Fault.quiet) ] in
  consult_all never Fault.Parse;
  consult_all never Fault.Pool_task;
  Alcotest.(check int) "quiet never fires" 0 (Fault.total_injected never);
  Alcotest.(check int) "consultations counted" n
    (Fault.decisions never Fault.Parse);
  (* p = 1: always fires, and fire raises Injected *)
  let always =
    Fault.create ~seed:1
      [ (Fault.Parse, { Fault.quiet with Fault.p_raise = 1.0 }) ]
  in
  consult_all always Fault.Parse;
  Alcotest.(check int) "certain always fires" n
    (Fault.injected always Fault.Parse);
  (match Fault.fire always Fault.Parse with
  | () -> Alcotest.fail "expected Injected"
  | exception Fault.Injected Fault.Parse -> ());
  (* p = 0.5: the stream is statistically plausible *)
  let half =
    Fault.create ~seed:7
      [ (Fault.Parse, { Fault.quiet with Fault.p_raise = 0.5 }) ]
  in
  consult_all half Fault.Parse;
  let k = Fault.injected half Fault.Parse in
  Alcotest.(check bool) "half fires about half the time" true
    (k > (n * 2 / 5) && k < (n * 3 / 5))

let test_retry_backoff () =
  (* jitter 0 makes the sequence the pure clamped exponential *)
  let p =
    {
      Retry.attempts = 4;
      base_delay_s = 0.01;
      multiplier = 2.;
      max_delay_s = 0.04;
      jitter = 0.;
      seed = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "retry 1" 0.01 (Retry.delay_s p ~retry:1);
  Alcotest.(check (float 1e-9)) "retry 2" 0.02 (Retry.delay_s p ~retry:2);
  Alcotest.(check (float 1e-9)) "retry 3" 0.04 (Retry.delay_s p ~retry:3);
  Alcotest.(check (float 1e-9)) "capped" 0.04 (Retry.delay_s p ~retry:9);
  let sleeps = ref [] in
  let fails = ref 2 in
  let o =
    Retry.run
      ~sleep:(fun s -> sleeps := s :: !sleeps)
      p
      ~retryable:(fun _ -> true)
      (fun () ->
        if !fails > 0 then begin
          decr fails;
          failwith "transient"
        end;
        42)
  in
  Alcotest.(check bool) "succeeds" true (o.Retry.result = Ok 42);
  Alcotest.(check int) "three tries" 3 o.Retry.tries;
  Alcotest.(check (list (float 1e-9))) "exact backoff sleeps" [ 0.01; 0.02 ]
    (List.rev !sleeps)

let test_retry_gives_up () =
  let p = { Retry.default with Retry.attempts = 3; jitter = 0. } in
  let tries = ref 0 in
  let o =
    Retry.run
      ~sleep:(fun _ -> ())
      p
      ~retryable:(fun _ -> true)
      (fun () -> incr tries; failwith "always")
  in
  Alcotest.(check bool) "error result" true (Result.is_error o.Retry.result);
  Alcotest.(check int) "all attempts used" 3 o.Retry.tries;
  Alcotest.(check int) "thunk ran each time" 3 !tries;
  (* a non-retryable exception ends the loop on the first try *)
  let o2 =
    Retry.run
      ~sleep:(fun _ -> ())
      p
      ~retryable:(fun _ -> false)
      (fun () -> raise Exit)
  in
  Alcotest.(check int) "non-retryable stops" 1 o2.Retry.tries;
  Alcotest.(check bool) "carries the exn" true (o2.Retry.result = Error Exit)

let test_breaker_fsm () =
  (* fake clock: the whole FSM is driven without sleeping *)
  let br = Breaker.create ~config:{ Breaker.threshold = 2; cooldown_s = 10. } () in
  let t0 = 1000. in
  Alcotest.(check bool) "starts closed" true (Breaker.state br = `Closed);
  Alcotest.(check bool) "closed admits" true (Breaker.admit br ~now:t0 = Breaker.Allow);
  Breaker.failure br ~now:t0;
  Alcotest.(check bool) "below threshold stays closed" true
    (Breaker.state br = `Closed);
  Breaker.failure br ~now:t0;
  Alcotest.(check bool) "threshold opens" true (Breaker.state br = `Open);
  Alcotest.(check int) "one trip" 1 (Breaker.trips br);
  (match Breaker.admit br ~now:(t0 +. 5.) with
  | Breaker.Shed ra -> Alcotest.(check bool) "retry-after positive" true (ra >= 1)
  | Breaker.Allow -> Alcotest.fail "open must shed inside the cooldown");
  (* past the cooldown: one probe is admitted, duplicates shed *)
  Alcotest.(check bool) "half-open probe" true
    (Breaker.admit br ~now:(t0 +. 11.) = Breaker.Allow);
  Alcotest.(check bool) "half-open state" true (Breaker.state br = `Half_open);
  Alcotest.(check bool) "second probe sheds" true
    (Breaker.admit br ~now:(t0 +. 11.) <> Breaker.Allow);
  Breaker.failure br ~now:(t0 +. 11.);
  Alcotest.(check bool) "failed probe re-opens" true (Breaker.state br = `Open);
  Alcotest.(check int) "second trip" 2 (Breaker.trips br);
  Alcotest.(check bool) "probe again later" true
    (Breaker.admit br ~now:(t0 +. 22.) = Breaker.Allow);
  Breaker.success br;
  Alcotest.(check bool) "successful probe closes" true
    (Breaker.state br = `Closed);
  Alcotest.(check bool) "closed again admits" true
    (Breaker.admit br ~now:(t0 +. 23.) = Breaker.Allow)

let test_budget_wall_allowance () =
  (* the relative allowance drains against real elapsed time; interval 1
     checks the clock on every tick *)
  let b = Budget.create ~deadline_ms:30. ~interval:1 () in
  let ticks = ref 0 in
  while Budget.tick b && !ticks < 1000 do
    incr ticks;
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "deadline fired" true
    (Budget.exhausted b = Some Budget.Deadline);
  Alcotest.(check bool) "fired in bounded ticks" true (!ticks < 1000);
  (* children of a split inherit only the remaining allowance *)
  let parent = Budget.create ~deadline_ms:30. ~interval:1 () in
  Unix.sleepf 0.05;
  match Budget.split parent ~parts:2 with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "spent parent's children are born spent" false
        (Budget.ok c1 && Budget.ok c2)
  | _ -> Alcotest.fail "split arity"

let test_budget_split_remainder () =
  (* a child's allowance is what the parent has left at the split, not
     the parent's full allowance: 600 ms granted, >= 300 ms spent, so a
     child has <= 300 ms; it is alive at once (margin: the first sleep's
     overshoot below 300 ms) and spent after another 400 ms, which the
     full 600 ms would still cover (margins >= 100 ms each way) *)
  let parent = Budget.create ~deadline_ms:600. ~interval:1 () in
  Unix.sleepf 0.3;
  match Budget.split parent ~parts:2 with
  | [ c1; c2 ] ->
      Alcotest.(check bool) "children alive right after the split" true
        (Budget.ok c1 && Budget.ok c2);
      Unix.sleepf 0.4;
      Alcotest.(check bool) "spent past the remainder" false (Budget.ok c1);
      Alcotest.(check bool) "by the deadline" true
        (Budget.exhausted c1 = Some Budget.Deadline)
  | _ -> Alcotest.fail "split arity"

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "robust.budget",
      [
        Alcotest.test_case "fuel" `Quick test_budget_fuel;
        Alcotest.test_case "burn" `Quick test_budget_burn;
        Alcotest.test_case "deadline" `Quick test_budget_deadline;
        Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
        Alcotest.test_case "exceptions" `Quick test_budget_exn;
        Alcotest.test_case "wall allowance" `Quick test_budget_wall_allowance;
        Alcotest.test_case "split hands on the remainder" `Quick
          test_budget_split_remainder;
      ] );
    ( "robust.fault",
      [
        Alcotest.test_case "seeded replay" `Quick test_fault_replay;
        Alcotest.test_case "probability bounds" `Quick test_fault_bounds;
      ] );
    ( "robust.retry",
      [
        Alcotest.test_case "exact backoff" `Quick test_retry_backoff;
        Alcotest.test_case "gives up" `Quick test_retry_gives_up;
      ] );
    ( "robust.breaker",
      [ Alcotest.test_case "state machine" `Quick test_breaker_fsm ] );
    ( "robust.diag",
      [
        Alcotest.test_case "render" `Quick test_diag_render;
        Alcotest.test_case "counts and exit codes" `Quick test_diag_counts;
        Alcotest.test_case "of_exn" `Quick test_diag_of_exn;
        Alcotest.test_case "collector order" `Quick test_diag_collector;
      ] );
    ( "robust.steiner",
      [
        Alcotest.test_case "empty terminals" `Quick
          test_arborescence_empty_terminals;
        Alcotest.test_case "empty bounded solution" `Quick
          test_minimal_trees_empty;
        Alcotest.test_case "fallback on exhaustion" `Quick
          test_steiner_fallback;
        Alcotest.test_case "ample budget exact" `Quick
          test_steiner_bounded_matches_exact;
        Alcotest.test_case "path budget truncates" `Quick
          test_paths_budget_truncates;
      ] );
    ( "robust.provenance",
      [ Alcotest.test_case "approximate flag" `Quick test_mark_approximate ] );
    ( "robust.fuzz",
      [
        Alcotest.test_case "truncations" `Quick test_fuzz_truncations;
        Alcotest.test_case "byte mutations" `Slow test_fuzz_mutations;
        Alcotest.test_case "regression corpus" `Quick test_fuzz_corpus;
        Alcotest.test_case "corpus crash classes" `Quick
          test_corpus_crash_classes;
        Alcotest.test_case "corpus validate classes" `Quick
          test_corpus_validate_classes;
        q prop_pipeline_never_crashes;
        Alcotest.test_case "witness sources are ground and valid" `Quick
          test_witness_valid;
      ] );
    ( "robust.pipeline",
      [
        Alcotest.test_case "tiny fuel on Mondial" `Quick
          test_tiny_fuel_mondial;
        Alcotest.test_case "unbounded equals legacy" `Quick
          test_unbounded_equals_legacy;
        Alcotest.test_case "lint accepts curated scenario" `Quick
          test_lint_clean_scenario;
        Alcotest.test_case "lint flags bad correspondence" `Quick
          test_lint_flags_bad_corr;
        Alcotest.test_case "exchange budgets" `Quick test_exchange_budget;
      ] );
  ]
