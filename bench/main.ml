(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section.

   - Table 1's time column is a *timing* result: one Bechamel benchmark
     per domain times semantic mapping generation over the domain's
     benchmark cases (group "table1-time"); the RIC-based baseline gets
     a benchmark per domain too, for the "comparable, both < 1 s" claim
     (group "baseline-time").
   - Figures 6 and 7 are *quality* results: the harness recomputes and
     prints the per-domain precision/recall series alongside.

   Output: the Table 1 / Figure 6 / Figure 7 reproductions, followed by
   the Bechamel timings (ns per full domain run). *)

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

(* chase-based data exchange at increasing source sizes: discover the
   books M5 mapping once, then execute it over generated instances *)
let exchange_fixture =
  lazy
    (let scen =
       List.find
         (fun s -> s.Smg_eval.Scenario.scen_name = "DBLP")
         (Lazy.force scenarios)
     in
     let case = List.hd scen.Smg_eval.Scenario.cases in
     let m =
       List.hd
         (Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen
            case)
     in
     (scen, m))

let exchange_sizes = [ 2; 8; 32 ]

(* generated source instances are cached per size so the timed closures
   measure the exchange itself — populating the source used to dominate
   both the chase and the engine rows at the larger sizes *)
let exchange_instances : (int, Smg_relational.Instance.t) Hashtbl.t =
  Hashtbl.create 8

let exchange_instance rows =
  match Hashtbl.find_opt exchange_instances rows with
  | Some inst -> inst
  | None ->
      let scen, _ = Lazy.force exchange_fixture in
      let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
      let inst =
        Smg_eval.Witness.populate ~rows_per_table:rows ~seed:1 source
      in
      Hashtbl.replace exchange_instances rows inst;
      inst

let exchange_run rows () =
  let scen, m = Lazy.force exchange_fixture in
  let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  let inst = exchange_instance rows in
  match
    Smg_cq.Chase.exchange ~source ~target
      ~mappings:[ Smg_cq.Mapping.to_tgd m ]
      inst
  with
  | Smg_cq.Chase.Saturated _ | Smg_cq.Chase.Bounded _ -> ()
  | Smg_cq.Chase.Failed msg -> failwith msg

(* the same mapping and sizes through the plan-based engine *)
let exchange_engine_run rows () =
  let scen, m = Lazy.force exchange_fixture in
  let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  let inst = exchange_instance rows in
  match
    Smg_exchange.Engine.run ~laconic:true ~source ~target
      ~mappings:[ Smg_cq.Mapping.to_tgd m ]
      inst
  with
  | Ok _ -> ()
  | Error msg -> failwith msg

(* composition: the DBLP round-trip chain (discovered mapping followed
   by its quasi-inverse into a primed source copy) run both ways —
   hop by hop, and in one shot through the composed mapping. The
   composed clause set is built once in the fixture; only execution is
   timed, so the pair measures the materialization saving of
   composing. *)
let compose_fixture =
  lazy
    (let scen, m = Lazy.force exchange_fixture in
     let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
     let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
     let m12 = [ Smg_cq.Mapping.to_tgd m ] in
     let primed = Smg_compose.Invert.prime_schema ~suffix:"_rt" source in
     let hops =
       [
         {
           Smg_compose.Pipeline.h_source = source;
           h_target = target;
           h_tgds = m12;
         };
         {
           Smg_compose.Pipeline.h_source = target;
           h_target = primed;
           h_tgds = Smg_compose.Invert.quasi_inverse ~prime:"_rt" m12;
         };
       ]
     in
     let r = Smg_compose.Pipeline.compose_chain hops in
     (source, primed, hops, r.Smg_compose.Compose.c_exec))

let compose_sequential_run rows () =
  let source, _, hops, _ = Lazy.force compose_fixture in
  let inst = Smg_eval.Witness.populate ~rows_per_table:rows ~seed:1 source in
  match Smg_compose.Pipeline.sequential hops inst with
  | Ok _ -> ()
  | Error _ -> failwith "compose bench: sequential leg failed"

let compose_one_shot_run rows () =
  let source, primed, _, exec = Lazy.force compose_fixture in
  let inst = Smg_eval.Witness.populate ~rows_per_table:rows ~seed:1 source in
  match Smg_compose.Pipeline.one_shot ~source ~target:primed ~exec inst with
  | Ok _ -> ()
  | Error _ -> failwith "compose bench: one-shot leg failed"

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

(* budget-check overhead: the same Mondial semantic discovery with and
   without a (never-exhausted) budget threaded through the Steiner DP
   and path search. The guarded run exercises every fuel check but
   never degrades, so the delta is pure bookkeeping cost. *)
let robust_fixture =
  lazy
    (List.find
       (fun s -> s.Smg_eval.Scenario.scen_name = "Mondial")
       (Lazy.force scenarios))

let robust_unguarded_run () =
  let scen = Lazy.force robust_fixture in
  List.iter
    (fun case ->
      ignore
        (Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen
           case))
    scen.Smg_eval.Scenario.cases

let robust_guarded_run () =
  let scen = Lazy.force robust_fixture in
  List.iter
    (fun case ->
      let budget = Smg_robust.Budget.create ~fuel:max_int () in
      ignore (Smg_eval.Experiments.run_semantic_bounded ~budget scen case))
    scen.Smg_eval.Scenario.cases

(* pooled vs sequential runs of the same discovery and exchange
   workloads. The pool is created once and kept for the whole process —
   Bechamel re-runs the staged closures many times and per-iteration
   pool setup would dominate. The pooled entries produce identical
   results (the pool's determinism guarantee), so the pairs measure
   dispatch overhead on a single core and speedup on a multicore
   host. *)
let parallel_pool =
  lazy
    (Smg_parallel.Pool.create ~domains:(Smg_parallel.Pool.default_domains ()))

let parallel_discover_run pool () =
  let scen = Lazy.force robust_fixture in
  let pool = if pool then Some (Lazy.force parallel_pool) else None in
  List.iter
    (fun case ->
      ignore (Smg_eval.Experiments.run_semantic_bounded ?pool scen case))
    scen.Smg_eval.Scenario.cases

(* the witness instance is part of the fixture, not the workload:
   populating it inside the staged closure would bill source-data
   synthesis to the engine. Built once per rows count and reused —
   the engine never mutates its source instance. *)
let parallel_engine_inst =
  let tbl = Hashtbl.create 4 in
  fun rows ->
    match Hashtbl.find_opt tbl rows with
    | Some inst -> inst
    | None ->
        let scen, _ = Lazy.force exchange_fixture in
        let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
        let inst =
          Smg_eval.Witness.populate ~rows_per_table:rows ~seed:1 source
        in
        Hashtbl.add tbl rows inst;
        inst

let parallel_engine_run pool rows () =
  let scen, m = Lazy.force exchange_fixture in
  let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  let inst = parallel_engine_inst rows in
  let pool = if pool then Some (Lazy.force parallel_pool) else None in
  match
    Smg_exchange.Engine.run ?pool ~source ~target
      ~mappings:[ Smg_cq.Mapping.to_tgd m ]
      inst
  with
  | Ok _ -> ()
  | Error msg -> failwith msg

(* the shard count each row actually runs with, resolved exactly like
   the engine resolves it (SMG_SHARDS > pool size > 1), so the
   recorded row names carry the partition configuration *)
let bench_shards ~pooled =
  match Option.bind (Sys.getenv_opt "SMG_SHARDS") int_of_string_opt with
  | Some s when s > 0 -> s
  | _ -> if pooled then Smg_parallel.Pool.default_domains () else 1

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
  let exchange =
    Test.make_grouped ~name:"exchange-scale"
      (List.map
         (fun rows ->
           Test.make
             ~name:(Printf.sprintf "rows=%d" rows)
             (Staged.stage (exchange_run rows)))
         exchange_sizes)
  in
  let exchange_engine =
    Test.make_grouped ~name:"exchange-engine"
      (List.map
         (fun rows ->
           Test.make
             ~name:(Printf.sprintf "rows=%d" rows)
             (Staged.stage (exchange_engine_run rows)))
         exchange_sizes)
  in
  let compose =
    Test.make_grouped ~name:"compose"
      (List.concat_map
         (fun rows ->
           [
             Test.make
               ~name:(Printf.sprintf "sequential/rows=%d" rows)
               (Staged.stage (compose_sequential_run rows));
             Test.make
               ~name:(Printf.sprintf "composed/rows=%d" rows)
               (Staged.stage (compose_one_shot_run rows));
           ])
         exchange_sizes)
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
  let robust =
    Test.make_grouped ~name:"robust"
      [
        Test.make ~name:"mondial-unguarded"
          (Staged.stage robust_unguarded_run);
        Test.make ~name:"mondial-guarded" (Staged.stage robust_guarded_run);
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
  let parallel =
    let domains = Smg_parallel.Pool.default_domains () in
    let name fmt = Printf.sprintf fmt in
    Test.make_grouped ~name:"parallel"
      [
        Test.make
          ~name:(name "mondial-discover-seq/domains=1/shards=%d"
                   (bench_shards ~pooled:false))
          (Staged.stage (parallel_discover_run false));
        Test.make
          ~name:(name "mondial-discover-pool/domains=%d/shards=%d" domains
                   (bench_shards ~pooled:true))
          (Staged.stage (parallel_discover_run true));
        Test.make
          ~name:(name "dblp-engine-seq/rows=32/domains=1/shards=%d"
                   (bench_shards ~pooled:false))
          (Staged.stage (parallel_engine_run false 32));
        Test.make
          ~name:(name "dblp-engine-pool/rows=32/domains=%d/shards=%d" domains
                   (bench_shards ~pooled:true))
          (Staged.stage (parallel_engine_run true 32));
      ]
  in
  Test.make_grouped ~name:"smg"
    [
      sem;
      ric;
      exchange;
      exchange_engine;
      compose;
      ablation;
      verify;
      robust;
      generate;
      parallel;
    ]

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

(* --json: the exchange measurements as BENCH_exchange.json rows. The
   Bechamel estimate gives ns/run; source and output cardinalities come
   from one untimed execution per size. *)
let exchange_meta () =
  let scen, m = Lazy.force exchange_fixture in
  let source = scen.Smg_eval.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  let mappings = [ Smg_cq.Mapping.to_tgd m ] in
  List.map
    (fun rows ->
      let inst =
        Smg_eval.Witness.populate ~rows_per_table:rows ~seed:1 source
      in
      let src_n = Smg_relational.Instance.total_tuples inst in
      let chase_out =
        match Smg_cq.Chase.exchange ~source ~target ~mappings inst with
        | Smg_cq.Chase.Saturated out | Smg_cq.Chase.Bounded out ->
            Smg_relational.Instance.total_tuples out
        | Smg_cq.Chase.Failed msg -> failwith msg
      in
      let engine_out =
        match
          Smg_exchange.Engine.run ~laconic:true ~source ~target ~mappings inst
        with
        | Ok rep ->
            Smg_relational.Instance.total_tuples rep.Smg_exchange.Engine.r_target
        | Error msg -> failwith msg
      in
      (rows, src_n, chase_out, engine_out))
    exchange_sizes

let bench_json results =
  let meta = exchange_meta () in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let rows =
    List.filter_map
      (fun (name, ols) ->
        match Bechamel.Analyze.OLS.estimates ols with
        | Some [ est ] when contains name "exchange" ->
            let engine = contains name "exchange-engine" in
            List.find_map
              (fun (rows, src_n, chase_out, engine_out) ->
                if contains name (Printf.sprintf "rows=%d" rows) then
                  let out = if engine then engine_out else chase_out in
                  Some
                    {
                      Smg_exchange.Obs.br_name =
                        (if engine then "bench-engine/dblp"
                         else "bench-chase/dblp");
                      br_size = src_n;
                      br_ns_per_run = est;
                      br_tuples_per_s = float_of_int out /. (est /. 1e9);
                    }
                else None)
              meta
        | _ -> None)
      results
  in
  Smg_exchange.Obs.write_bench_json ~path:"BENCH_exchange.json" rows;
  Fmt.pr "@.wrote BENCH_exchange.json (%d rows)@." (List.length rows)

(* --json also records the budget-check overhead pair so the <2%
   Steiner-DP fuel-check claim in DESIGN.md stays measurable. [size] is
   the number of Mondial benchmark cases per run; the throughput field
   is cases per second. *)
let robust_json results =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let estimate needle =
    List.find_map
      (fun (name, ols) ->
        if contains name "robust" && contains name needle then
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Some est
          | Some _ | None -> None
        else None)
      results
  in
  let cases =
    List.length (Lazy.force robust_fixture).Smg_eval.Scenario.cases
  in
  let row name est =
    {
      Smg_exchange.Obs.br_name = name;
      br_size = cases;
      br_ns_per_run = est;
      br_tuples_per_s = float_of_int cases /. (est /. 1e9);
    }
  in
  match (estimate "mondial-unguarded", estimate "mondial-guarded") with
  | Some plain, Some guarded ->
      let rows =
        [
          row "bench-discover-unguarded/mondial" plain;
          row "bench-discover-guarded/mondial" guarded;
        ]
      in
      Smg_exchange.Obs.write_bench_json ~path:"BENCH_robust.json" rows;
      Fmt.pr "wrote BENCH_robust.json (%d rows); budget overhead %+.2f%%@."
        (List.length rows)
        ((guarded -. plain) /. plain *. 100.)
  | _ -> Fmt.pr "robust bench estimates missing; BENCH_robust.json skipped@."

let () =
  let json = Array.exists (fun a -> a = "--json") Sys.argv in
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
    timed;
  if json then (
    bench_json timed;
    robust_json timed)
