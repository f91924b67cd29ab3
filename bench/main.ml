(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section.

   - Table 1's time column is a *timing* result: one Bechamel benchmark
     per domain times semantic mapping generation over the domain's
     benchmark cases (group "table1-time"); the RIC-based baseline gets
     a benchmark per domain too, for the "comparable, both < 1 s" claim
     (group "baseline-time").
   - Figures 6 and 7 are *quality* results: the harness recomputes and
     prints the per-domain precision/recall series alongside.
   - "ablation-time", "verify" and "generate" time the ablation variants,
     Mondial's verification layer and the scenario generator.

   Output: the Table 1 / Figure 6 / Figure 7 reproductions, followed by
   the Bechamel timings (ns per full domain run), printed only; the
   committed bench rows (BENCH_*.json) are written by [experiments]. *)

open Bechamel
open Toolkit

let scenarios = lazy (Smg_eval.Datasets.all ())

let semantic_run (scen : Smg_eval.Scenario.t) () =
  List.iter
    (fun case ->
      ignore
        (Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen
           case))
    scen.Smg_eval.Scenario.cases

let ric_run (scen : Smg_eval.Scenario.t) () =
  List.iter
    (fun case ->
      ignore
        (Smg_eval.Experiments.run_method Smg_eval.Experiments.Ric_based scen
           case))
    scen.Smg_eval.Scenario.cases

(* verification-layer latency on the largest scenario (Mondial):
   chase-based mapping-equivalence checks across the two methods'
   candidates, and core computation over a chased exchange result *)
let verify_fixture =
  lazy
    (let scen =
       List.find
         (fun s -> s.Smg_eval.Scenario.scen_name = "Mondial")
         (Lazy.force scenarios)
     in
     let case = List.hd scen.Smg_eval.Scenario.cases in
     let sem =
       Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen case
     in
     let ric =
       Smg_eval.Experiments.run_method Smg_eval.Experiments.Ric_based scen case
     in
     (scen, sem, ric))

let hom_check_run () =
  let scen, sem, ric = Lazy.force verify_fixture in
  let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          ignore (Smg_verify.Mapverify.equivalent ~source ~target s r))
        sem)
    ric

let core_fixture =
  lazy
    (let scen, sem, ric = Lazy.force verify_fixture in
     let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
     let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
     let tgds = List.map Smg_cq.Mapping.to_tgd (sem @ ric) in
     match
       Smg_verify.Mapverify.chase_canonical ~source ~target ~by:tgds
         (List.hd tgds)
     with
     | Some out -> out
     | None -> failwith "mondial canonical chase failed")

let core_run () = ignore (Smg_verify.Icore.core (Lazy.force core_fixture))

(* generated-scenario workloads (lib/generate): parameter vector →
   scenario synthesis, seeded witness population at 10k tuples, and
   per-case discovery over the frozen mid-size shape *)
let generate_params =
  lazy
    (Smg_generate.Params.clamp
       {
         Smg_generate.Params.seed = 7;
         isa_depth = 2;
         n_roots = 3;
         reify = 2;
         partof = 1;
         attrs_per_class = 2;
         corr_density = 0.8;
         scale = 10_000;
       })

let generate_scenario =
  lazy (Smg_generate.Gen.build (Lazy.force generate_params))

let generate_build_run () =
  ignore (Smg_generate.Gen.build (Lazy.force generate_params))

let generate_populate_run () =
  ignore (Smg_generate.Gen.source_instance (Lazy.force generate_scenario))

let generate_discover_run () =
  let g = Lazy.force generate_scenario in
  List.iter
    (fun (_, corrs) ->
      ignore
        (Smg_core.Discover.discover ~source:g.Smg_generate.Gen.g_source
           ~target:g.Smg_generate.Gen.g_target ~corrs ()))
    g.Smg_generate.Gen.g_cases

let ablation_run (v : Smg_eval.Ablation.variant) () =
  List.iter
    (fun (scen : Smg_eval.Scenario.t) ->
      List.iter
        (fun case ->
          ignore
            (Smg_core.Discover.discover ~options:v.Smg_eval.Ablation.v_options
               ~source:scen.Smg_eval.Scenario.source
               ~target:scen.Smg_eval.Scenario.target
               ~corrs:case.Smg_eval.Scenario.corrs ()))
        scen.Smg_eval.Scenario.cases)
    (Lazy.force scenarios)

let tests () =
  let scens = Lazy.force scenarios in
  let sem =
    Test.make_grouped ~name:"table1-time"
      (List.map
         (fun s ->
           Test.make
             ~name:s.Smg_eval.Scenario.scen_name
             (Staged.stage (semantic_run s)))
         scens)
  in
  let ric =
    Test.make_grouped ~name:"baseline-time"
      (List.map
         (fun s ->
           Test.make
             ~name:s.Smg_eval.Scenario.scen_name
             (Staged.stage (ric_run s)))
         scens)
  in
  let ablation =
    Test.make_grouped ~name:"ablation-time"
      (List.map
         (fun (v : Smg_eval.Ablation.variant) ->
           Test.make ~name:v.Smg_eval.Ablation.v_name
             (Staged.stage (ablation_run v)))
         Smg_eval.Ablation.variants)
  in
  let verify =
    Test.make_grouped ~name:"verify"
      [
        Test.make ~name:"mondial-hom-equivalence" (Staged.stage hom_check_run);
        Test.make ~name:"mondial-core" (Staged.stage core_run);
      ]
  in
  let generate =
    Test.make_grouped ~name:"generate"
      [
        Test.make ~name:"build/mid" (Staged.stage generate_build_run);
        Test.make ~name:"populate/10k" (Staged.stage generate_populate_run);
        Test.make ~name:"discover/cases" (Staged.stage generate_discover_run);
      ]
  in
  Test.make_grouped ~name:"smg"
    [ sem; ric; ablation; verify; generate ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare

let () =
  (* quality series: Figures 6 and 7, plus the Table 1 characteristics *)
  let results = Smg_eval.Experiments.run_all (Lazy.force scenarios) in
  Fmt.pr "%a@.@." Smg_eval.Experiments.pp_table1 results;
  Fmt.pr "%a@.@." Smg_eval.Experiments.pp_fig6 results;
  Fmt.pr "%a@.@." Smg_eval.Experiments.pp_fig7 results;
  (* timing: the Table 1 "time" column, measured properly *)
  Fmt.pr "Bechamel timings (full domain runs):@.";
  let timed = benchmark () in
  List.iter
    (fun (name, ols) ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "  %-28s %12.0f ns/run@." name est
      | Some _ | None -> Fmt.pr "  %-28s (no estimate)@." name)
    timed
