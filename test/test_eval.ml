(* Tests for the evaluation harness: measures, scenario validation, and
   the headline experimental claims (the shape of Figures 6/7). *)

module Mapping = Smg_cq.Mapping
module Query = Smg_cq.Query
module Atom = Smg_cq.Atom
module Measures = Smg_eval.Measures
module Scenario = Smg_eval.Scenario
module Experiments = Smg_eval.Experiments

let mk name =
  Mapping.make ~name
    ~src_query:(Query.make ~head:[ Atom.v "x" ] [ Atom.atom name [ Atom.v "x" ] ])
    ~tgt_query:(Query.make ~head:[ Atom.v "y" ] [ Atom.atom "t" [ Atom.v "y" ] ])
    ~covered:[ Mapping.corr_of_strings (name ^ ".a") "t.b" ]
    ()

let test_measures_basic () =
  let r = mk "r" and s = mk "s" in
  let o = Measures.score ~generated:[ r; s ] ~benchmark:[ r ] () in
  Alcotest.(check int) "hits" 1 o.Measures.n_hits;
  Alcotest.(check (float 1e-9)) "precision" 0.5 o.Measures.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 o.Measures.recall

let test_measures_empty_generated () =
  let o = Measures.score ~generated:[] ~benchmark:[ mk "r" ] () in
  Alcotest.(check (float 1e-9)) "precision 0" 0. o.Measures.precision;
  Alcotest.(check (float 1e-9)) "recall 0" 0. o.Measures.recall

let test_average () =
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "mean" (0.5, 0.75)
    (Measures.average [ (1.0, 1.0); (0.0, 0.5) ]);
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "empty" (0., 0.) (Measures.average [])

let test_n_class_nodes () =
  Alcotest.(check int) "books source CM: 3 classes + 2 reified" 5
    (Scenario.n_class_nodes Fixtures.Books.source_cm)

(* every built-in scenario validates and the headline claims hold *)
let all_results = lazy (Experiments.run_all (Smg_eval.Datasets.all ()))

let test_scenarios_validate () =
  List.iter Scenario.validate (Smg_eval.Datasets.all ())

let test_scenario_count () =
  let scens = Smg_eval.Datasets.all () in
  Alcotest.(check int) "seven domains" 7 (List.length scens);
  let total_cases =
    List.fold_left (fun acc s -> acc + List.length s.Scenario.cases) 0 scens
  in
  Alcotest.(check int) "34 benchmark mapping cases" 34 total_cases

let test_semantic_recall_is_one () =
  (* "the semantic approach did not miss any correct mappings … it got
     all the mappings sought" (Figure 7's headline) *)
  List.iter
    (fun (r : Experiments.domain_result) ->
      Alcotest.(check (float 1e-9))
        (r.Experiments.dr_scenario.Scenario.scen_name ^ " semantic recall")
        1.0 r.Experiments.dr_sem_recall)
    (Lazy.force all_results)

let test_semantic_dominates_ric () =
  List.iter
    (fun (r : Experiments.domain_result) ->
      let name = r.Experiments.dr_scenario.Scenario.scen_name in
      Alcotest.(check bool)
        (name ^ ": semantic precision >= RIC")
        true
        (r.Experiments.dr_sem_precision >= r.Experiments.dr_ric_precision);
      Alcotest.(check bool)
        (name ^ ": semantic recall >= RIC")
        true
        (r.Experiments.dr_sem_recall >= r.Experiments.dr_ric_recall))
    (Lazy.force all_results)

let test_ric_misses_isa_cases () =
  (* the baseline must fail exactly where the paper says it does: the
     ISA-merge cases of Amalgam *)
  let amalgam =
    List.find
      (fun r -> r.Experiments.dr_scenario.Scenario.scen_name = "Amalgam")
      (Lazy.force all_results)
  in
  let case name =
    List.find
      (fun c ->
        c.Experiments.cr_case = name
        && c.Experiments.cr_method = Experiments.Ric_based)
      amalgam.Experiments.dr_cases
  in
  Alcotest.(check (float 1e-9)) "hierarchy-merge unreachable for RIC" 0.
    (case "hierarchy-merge").Experiments.cr_outcome.Measures.recall;
  Alcotest.(check (float 1e-9)) "rootless-merge unreachable for RIC" 0.
    (case "rootless-merge").Experiments.cr_outcome.Measures.recall

let test_generation_time_band () =
  (* the paper's Table 1: "it took less than one second" per domain *)
  List.iter
    (fun (r : Experiments.domain_result) ->
      Alcotest.(check bool)
        (r.Experiments.dr_scenario.Scenario.scen_name ^ " under a second")
        true
        (r.Experiments.dr_sem_seconds < 1.0))
    (Lazy.force all_results)

let test_micro_ablation () =
  (* each disabled ingredient must hurt at least one micro-scenario *)
  let rows = Smg_eval.Ablation.run_micro () in
  let get name =
    List.find (fun r -> r.Smg_eval.Ablation.r_variant = name) rows
  in
  let full = get "full" in
  Alcotest.(check (float 1e-9)) "full precision" 1.0 full.Smg_eval.Ablation.r_precision;
  Alcotest.(check (float 1e-9)) "full recall" 1.0 full.Smg_eval.Ablation.r_recall;
  List.iter
    (fun v ->
      let r = get v in
      Alcotest.(check bool) (v ^ " hurts the micros") true
        (r.Smg_eval.Ablation.r_precision < 1.0
        || r.Smg_eval.Ablation.r_recall < 1.0))
    [ "no-shapes"; "no-preselection"; "no-lossy"; "no-partial" ]

let test_partof_ablation_on_ut () =
  (* Example 1.3: disabling the partOf category admits the deanOf
     pairing on the UT case *)
  let scen = Smg_eval.Dataset_ut.scenario () in
  let case =
    List.find
      (fun c -> c.Scenario.case_name = "partof-disambiguation")
      scen.Scenario.cases
  in
  let count options =
    List.length
      (Smg_core.Discover.discover ~options ~source:scen.Scenario.source
         ~target:scen.Scenario.target ~corrs:case.Scenario.corrs ())
  in
  let with_partof = count Experiments.semantic_options in
  let without =
    count
      { Experiments.semantic_options with Smg_core.Discover.use_partof = false }
  in
  Alcotest.(check bool) "partOf filter prunes a candidate" true
    (without > with_partof)

let test_witness_populate_satisfies_constraints () =
  let schema = Fixtures.Books.source_schema in
  let inst = Smg_eval.Witness.populate ~seed:7 schema in
  Alcotest.(check int) "rics hold" 0
    (List.length (Smg_relational.Instance.check_rics schema inst));
  Alcotest.(check int) "keys hold" 0
    (List.length (Smg_relational.Instance.check_keys schema inst));
  Alcotest.(check bool) "non-empty" true
    (Smg_relational.Instance.total_tuples inst > 0)

let test_witness_deterministic () =
  let scen = Smg_eval.Dataset_threesdb.scenario () in
  let case = List.hd scen.Scenario.cases in
  let v1 = Smg_eval.Witness.check_case ~seed:9 scen case in
  let v2 = Smg_eval.Witness.check_case ~seed:9 scen case in
  Alcotest.(check bool) "same verdict for same seed" true (v1 = v2)

let test_witness_all_hits_agree () =
  (* every matched candidate must agree with its benchmark on a
     generated instance — empirical confirmation of same_under *)
  List.iter
    (fun scen ->
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (scen.Scenario.scen_name ^ "/" ^ v.Smg_eval.Witness.w_case
           ^ " agrees")
            true v.Smg_eval.Witness.w_agree)
        (Smg_eval.Witness.check_scenario scen))
    (Smg_eval.Datasets.all ())

(* Agreement on an empty answer set shows nothing: on ground witness
   sources every one of the 34 matched cases returns answers. *)
let test_witness_answers_nonempty () =
  let verdicts =
    List.concat_map Smg_eval.Witness.check_scenario (Smg_eval.Datasets.all ())
  in
  Alcotest.(check int) "matched cases" 34 (List.length verdicts);
  List.iter
    (fun v ->
      if v.Smg_eval.Witness.w_benchmark = 0 then
        Alcotest.failf "%s: no answers" v.Smg_eval.Witness.w_case)
    verdicts

let suite =
  [
    ( "eval.measures",
      [
        Alcotest.test_case "precision/recall" `Quick test_measures_basic;
        Alcotest.test_case "empty P" `Quick test_measures_empty_generated;
        Alcotest.test_case "average" `Quick test_average;
        Alcotest.test_case "class node count" `Quick test_n_class_nodes;
      ] );
    ( "eval.experiments",
      [
        Alcotest.test_case "scenarios validate" `Quick test_scenarios_validate;
        Alcotest.test_case "dataset sizes" `Quick test_scenario_count;
        Alcotest.test_case "semantic recall = 1.0 (Fig 7)" `Slow
          test_semantic_recall_is_one;
        Alcotest.test_case "semantic dominates RIC (Fig 6/7)" `Slow
          test_semantic_dominates_ric;
        Alcotest.test_case "RIC misses ISA merges" `Slow test_ric_misses_isa_cases;
        Alcotest.test_case "sub-second generation (Table 1)" `Slow
          test_generation_time_band;
        Alcotest.test_case "micro ablations isolate ingredients" `Slow
          test_micro_ablation;
        Alcotest.test_case "partOf ablation (Example 1.3)" `Quick
          test_partof_ablation_on_ut;
        Alcotest.test_case "witness instances satisfy constraints" `Quick
          test_witness_populate_satisfies_constraints;
        Alcotest.test_case "witnesses: hits agree with benchmarks" `Slow
          test_witness_all_hits_agree;
        Alcotest.test_case "witness determinism" `Quick test_witness_deterministic;
        Alcotest.test_case "witness answers are non-empty" `Slow
          test_witness_answers_nonempty;
      ] );
  ]
