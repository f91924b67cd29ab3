(* Regenerates the paper's evaluation artefacts (Table 1, Figures 6/7)
   from the built-in datasets, and runs the repository's benchmarks.

   Usage:
     experiments            — everything
     experiments table1 [--json]
                            — dataset characteristics + generation time;
                              --json writes the time column's rows to
                              BENCH_table1.json
     experiments fig6       — average precision per domain
     experiments fig7       — average recall per domain
     experiments cases      — per-case breakdown
     experiments exchange-scale | parallel-scale | incremental | compose
                 | generate | serve-load | robust  [--smoke] [--json]
                            — one benchmark; --json writes its rows to
                              BENCH_<bench>.json *)

open Cmdliner

let results = lazy (Smg_eval.Experiments.run_all (Smg_eval.Datasets.all ()))

let table1 () = Fmt.pr "%a@." Smg_eval.Experiments.pp_table1 (Lazy.force results)
let fig6 () = Fmt.pr "%a@." Smg_eval.Experiments.pp_fig6 (Lazy.force results)
let fig7 () = Fmt.pr "%a@." Smg_eval.Experiments.pp_fig7 (Lazy.force results)

let ablation () =
  Fmt.pr "Over the seven benchmark domains:@.%a@." Smg_eval.Ablation.pp
    (Smg_eval.Ablation.run (Smg_eval.Datasets.all ()));
  Fmt.pr "@.Over the diagnostic micro-scenarios:@.%a@." Smg_eval.Ablation.pp
    (Smg_eval.Ablation.run_micro ())

let redundancy () =
  let rows =
    List.map
      (fun scen -> (scen, Smg_eval.Experiments.redundancy scen))
      (Smg_eval.Datasets.all ())
  in
  Fmt.pr "%a@." Smg_eval.Experiments.pp_redundancy rows

let witness () =
  List.iter
    (fun scen ->
      Fmt.pr "== %s@." scen.Smg_eval.Scenario.scen_name;
      List.iter
        (fun v -> Fmt.pr "  %a@." Smg_eval.Witness.pp_verdict v)
        (Smg_eval.Witness.check_scenario scen))
    (Smg_eval.Datasets.all ())

let cases () =
  List.iter
    (fun r -> Fmt.pr "%a@." Smg_eval.Experiments.pp_cases r)
    (Lazy.force results)

let all () =
  table1 ();
  Fmt.pr "@.";
  cases ();
  Fmt.pr "@.";
  fig6 ();
  Fmt.pr "@.";
  fig7 ();
  Fmt.pr "@.";
  redundancy ();
  Fmt.pr "@.";
  ablation ()

(* ---- bench rows ---------------------------------------------------------

   Every BENCH_<bench>.json this program writes is a JSON array of rows
   with the same twelve keys, in this order: bench, name, unit, size,
   domains, shards, seed, cores, runs, median, min, max. A timing row is
   in ns and summarises [runs] runs, as robust's overhead row summarises
   [runs] per-pair ratios; any other count, ratio or rate row holds one
   value ([runs] 1). [size] is the workload's input size (source tuples,
   batch operations or discovery cases), [seed] is null for a workload
   without one, and [cores] is the host's recommended domain count: a
   row at more domains than cores measures overhead, not speedup. *)

type spread = { runs : int; median : float; min : float; max : float }

type row = {
  name : string;
  unit : string;
  size : int;
  domains : int;
  shards : int;
  seed : int option;
  stats : spread;
}

let one v = { runs = 1; median = v; min = v; max = v }

let spread_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let median =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  { runs = n; median; min = a.(0); max = a.(n - 1) }

(* [shards] defaults to the count an engine run without a pool uses *)
let row ?(domains = 1) ?(shards = Smg_exchange.Engine.resolve_shards ())
    ?seed ~size name unit stats =
  { name; unit; size; domains; shards; seed; stats }

let write_rows bench rows =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let cores = Domain.recommended_domain_count () in
  let num v =
    if Float.is_integer v then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.4f" v
  in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s  {\"bench\": \"%s\", \"name\": \"%s\", \"unit\": \"%s\", \
         \"size\": %d, \"domains\": %d, \"shards\": %d, \"seed\": %s, \
         \"cores\": %d, \"runs\": %d, \"median\": %s, \"min\": %s, \"max\": \
         %s}"
        (if i = 0 then "" else ",\n")
        bench r.name r.unit r.size r.domains r.shards
        (match r.seed with Some s -> string_of_int s | None -> "null")
        cores r.stats.runs (num r.stats.median) (num r.stats.min)
        (num r.stats.max))
    rows;
  output_string oc "\n]\n";
  close_out oc;
  Fmt.pr "@.wrote %s (%d rows)@." path (List.length rows)

(* [measure f] is [f]'s first result and the spread, in ns, of at least
   3 runs of [f], continued until 0.1 s has passed in total or 50 runs
   are done *)
let measure f =
  let x, s = Smg_robust.Clock.time f in
  let rec go acc n total =
    if n >= 50 || (n >= 3 && total >= 0.1) then acc
    else
      let _, s = Smg_robust.Clock.time f in
      go (s :: acc) (n + 1) (total +. s)
  in
  (x, spread_of (List.map (fun s -> Float.round (1e9 *. s)) (go [ s ] 1 s)))

(* table1: Table 1 as printed, and its time column as rows: each
   domain's semantic and RIC-based mapping generation over all of its
   cases, one [measure] per method *)
let table1_report json =
  table1 ();
  if json then begin
    let module E = Smg_eval.Experiments in
    let rows =
      List.concat_map
        (fun (scen : Smg_eval.Scenario.t) ->
          let cases = scen.Smg_eval.Scenario.cases in
          let domain =
            String.lowercase_ascii scen.Smg_eval.Scenario.scen_name
          in
          List.map
            (fun (kind, meth) ->
              let _, t =
                measure (fun () ->
                    List.iter (fun case -> ignore (E.run_method kind scen case))
                      cases)
              in
              Fmt.pr "%-8s %-8s %9.3f ms over %d run(s)@." domain meth
                (t.median /. 1e6) t.runs;
              row ~size:(List.length cases)
                (Printf.sprintf "table1/%s/%s" domain meth)
                "ns" t)
            [ (E.Semantic, "semantic"); (E.Ric_based, "ric") ])
        (Smg_eval.Datasets.all ())
    in
    write_rows "table1" rows
  end

let builtin name =
  List.find
    (fun s -> s.Smg_eval.Scenario.scen_name = name)
    (Smg_eval.Datasets.all ())

(* each case's best semantic candidate as executable tgds, renamed after
   the case; an outer-join candidate contributes its variants *)
let best_tgds (scen : Smg_eval.Scenario.t) =
  let target = scen.Smg_eval.Scenario.target.Smg_core.Discover.schema in
  List.concat_map
    (fun (case : Smg_eval.Scenario.case) ->
      match
        Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen case
      with
      | [] -> []
      | best :: _ ->
          let best =
            Smg_cq.Mapping.rename case.Smg_eval.Scenario.case_name best
          in
          Smg_cq.Mapping.outer_variants ~target best)
    scen.Smg_eval.Scenario.cases

(* the large fixture the hand-written domains cannot supply: a
   generated scenario (lib/generate) whose witness instance scales to
   [scale] tuples, with its best discovered mapping as tgds *)
let generated_fixture ~seed ~scale =
  let module Gparams = Smg_generate.Params in
  let p =
    Gparams.clamp
      {
        Gparams.seed;
        isa_depth = 2;
        n_roots = 3;
        reify = 2;
        partof = 1;
        attrs_per_class = 2;
        corr_density = 0.8;
        scale;
      }
  in
  let g = Smg_generate.Gen.build p in
  let target = g.Smg_generate.Gen.g_target.Smg_core.Discover.schema in
  match
    Smg_core.Discover.discover ~source:g.Smg_generate.Gen.g_source
      ~target:g.Smg_generate.Gen.g_target ~corrs:g.Smg_generate.Gen.g_corrs ()
  with
  | [] -> failwith "no mapping discovered on the generated fixture"
  | best :: _ ->
      (p, g, Smg_cq.Mapping.outer_variants ~target best)

(* exchange-scale: the plan-based exchange engine vs the naive chase on
   the DBLP domain at increasing generated-source sizes. *)

let exchange_scale json smoke seed sizes =
  let module Scenario = Smg_eval.Scenario in
  let module Instance = Smg_relational.Instance in
  let scen = builtin "DBLP" in
  let source = scen.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Scenario.target.Smg_core.Discover.schema in
  let mappings = best_tgds scen in
  let sizes =
    match sizes with
    | Some s -> s
    | None -> if smoke then [ 2; 8 ] else [ 4; 16; 64; 256 ]
  in
  Fmt.pr
    "exchange-scale: DBLP, %d tgd(s), sizes (rows/table) %s, seed %d@.@."
    (List.length mappings)
    (String.concat "," (List.map string_of_int sizes))
    seed;
  Fmt.pr "%8s %8s | %12s %12s %12s | %8s@." "rows" "src" "chase ns"
    "engine ns" "laconic ns" "speedup";
  let rows =
    List.concat_map
      (fun rows_per_table ->
        let inst =
          Smg_eval.Witness.populate ~rows_per_table ~seed source
        in
        let src_n = Instance.total_tuples inst in
        let run_engine laconic () =
          match
            Smg_exchange.Engine.run ~laconic ~source ~target ~mappings inst
          with
          | Ok _ -> ()
          | Error msg -> failwith ("engine: " ^ msg)
        in
        let run_chase () =
          match Smg_cq.Chase.exchange ~source ~target ~mappings inst with
          | Smg_cq.Chase.Saturated _ | Smg_cq.Chase.Bounded _ -> ()
          | Smg_cq.Chase.Failed msg -> failwith ("chase: " ^ msg)
        in
        let _, c = measure run_chase in
        let _, e = measure (run_engine false) in
        let _, l = measure (run_engine true) in
        Fmt.pr "%8d %8d | %12.0f %12.0f %12.0f | %7.1fx@." rows_per_table
          src_n c.median e.median l.median (c.median /. e.median);
        let row name = row ~seed ~size:src_n name "ns" in
        [
          row "chase/dblp" c;
          row "engine/dblp" e;
          row "engine-laconic/dblp" l;
        ])
      sizes
  in
  if json then write_rows "exchange" rows

(* parallel-scale: the discovery and exchange workloads under a domain
   pool at increasing domain counts. Each row's ratio is its wall-clock
   time over the same workload's time at the first domain count in the
   list (normally 1). On a host with fewer cores than domains the pool
   cannot win, so the ratio measures fan-out overhead, not speedup.
   Output invariance across domain and shard counts is asserted on every
   run: the ranked discovery fingerprint and both exchange cardinalities
   must equal the first domain count's. *)

let parallel_scale json smoke seed domains rows gen_tuples shards =
  let module Scenario = Smg_eval.Scenario in
  let module Instance = Smg_relational.Instance in
  let module Pool = Smg_parallel.Pool in
  let domain_counts =
    match domains with
    | Some l -> l
    | None -> if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ]
  in
  let rows_per_table =
    match rows with Some r -> r | None -> if smoke then 16 else 256
  in
  let gen_tuples =
    match gen_tuples with Some n -> n | None -> if smoke then 2_000 else 100_000
  in
  let mondial = builtin "Mondial" and dblp = builtin "DBLP" in
  (* discovery workload: every Mondial case, per-CSG fan-out *)
  let discover_once pool =
    List.concat_map
      (fun case ->
        (Smg_eval.Experiments.run_semantic_bounded ?pool mondial case)
          .Smg_core.Discover.o_mappings)
      mondial.Scenario.cases
  in
  (* exchange workload: DBLP's discovered tgds over a generated source *)
  let source = dblp.Scenario.source.Smg_core.Discover.schema in
  let target = dblp.Scenario.target.Smg_core.Discover.schema in
  let mappings = best_tgds dblp in
  let inst = Smg_eval.Witness.populate ~rows_per_table ~seed source in
  let src_n = Instance.total_tuples inst in
  let exchange_once pool nshards () =
    match
      Smg_exchange.Engine.run ?pool ~shards:nshards ~source ~target ~mappings
        inst
    with
    | Ok rep -> Instance.total_tuples rep.Smg_exchange.Engine.r_target
    | Error msg -> failwith ("engine: " ^ msg)
  in
  let gen_p, g, g_tgds = generated_fixture ~seed:7 ~scale:gen_tuples in
  let g_source = g.Smg_generate.Gen.g_source.Smg_core.Discover.schema in
  let g_target = g.Smg_generate.Gen.g_target.Smg_core.Discover.schema in
  let g_inst = Smg_generate.Gen.source_instance g in
  let g_n = Instance.total_tuples g_inst in
  let gen_once pool nshards () =
    match
      Smg_exchange.Engine.run ?pool ~shards:nshards ~source:g_source
        ~target:g_target ~mappings:g_tgds g_inst
    with
    | Ok rep -> Instance.total_tuples rep.Smg_exchange.Engine.r_target
    | Error msg -> failwith ("generated engine: " ^ msg)
  in
  Fmt.pr
    "parallel-scale: discover/mondial (%d case(s)), engine/dblp (%d source \
     tuple(s), seed %d), engine/generated (%s: %d source tuple(s)); domains \
     %s; shards %s@.@."
    (List.length mondial.Scenario.cases)
    src_n seed
    (Smg_generate.Params.label gen_p)
    g_n
    (String.concat "," (List.map string_of_int domain_counts))
    (match shards with Some s -> string_of_int s | None -> "= domains");
  Fmt.pr "%8s %7s | %13s %8s | %13s %8s | %13s %8s@." "domains" "shards"
    "discover ns" "overhead" "exchange ns" "overhead" "generated ns"
    "overhead";
  let fingerprint ms =
    List.map
      (fun (m : Smg_cq.Mapping.t) ->
        (m.Smg_cq.Mapping.m_name, m.Smg_cq.Mapping.score))
      ms
  in
  let first = ref None in
  let bench_rows =
    List.concat_map
      (fun n ->
        let nshards = match shards with Some s -> s | None -> n in
        let with_pool f =
          if n <= 1 then f None
          else Pool.with_pool ~domains:n (fun p -> f (Some p))
        in
        let (disc, ds), (out, es), (gout, gs) =
          with_pool (fun pool ->
              ( measure (fun () -> discover_once pool),
                measure (exchange_once pool nshards),
                measure (gen_once pool nshards) ))
        in
        if !first = None then
          first :=
            Some (fingerprint disc, out, gout, ds.median, es.median, gs.median);
        let fp0, out0, gout0, d0, e0, g0 = Option.get !first in
        if fingerprint disc <> fp0 then
          failwith "discovery output varies with the domain count";
        if (out, gout) <> (out0, gout0) then
          failwith
            (Printf.sprintf
               "exchange cardinalities diverge at %d domain(s), %d shard(s): \
                dblp %d vs %d, generated %d vs %d"
               n nshards out out0 gout gout0);
        Fmt.pr "%8d %7d | %13.0f %7.2fx | %13.0f %7.2fx | %13.0f %7.2fx@." n
          nshards ds.median (ds.median /. d0) es.median (es.median /. e0)
          gs.median (gs.median /. g0);
        let row = row ~domains:n ~shards:nshards in
        [
          row ~size:(List.length mondial.Scenario.cases) "discover/mondial" "ns"
            ds;
          row ~seed ~size:src_n "engine/dblp" "ns" es;
          row ~seed:gen_p.Smg_generate.Params.seed ~size:g_n "engine/generated"
            "ns" gs;
        ])
      domain_counts
  in
  if json then write_rows "parallel" bench_rows

(* incremental: delta-chase maintenance (lib/delta) vs a full re-chase
   on the generated large fixture, across batch sizes from 0.1% to 50%
   of the source. Each fraction applies one batch (half deletes of
   existing tuples, half fresh inserts) through Maintain.apply, times
   it against Engine.execute over the same post-batch source with the
   same compiled plans, asserts the maintained target is homomorphically
   equivalent to the rebuild, then rolls the batch back with its inverse
   so fractions are independent (the rollback is digest-checked). The
   rebuild's rendered document is also asserted byte-identical at 1 and
   4 domains. Both timings are single runs: re-applying a rolled-back
   batch would find its constants already interned and hide the cost of
   interning fresh ones. *)

let incremental json smoke seed gen_tuples =
  let module Instance = Smg_relational.Instance in
  let module Value = Smg_relational.Value in
  let module Schema = Smg_relational.Schema in
  let module Maintain = Smg_delta.Maintain in
  let module Batch = Smg_delta.Batch in
  let module Engine = Smg_exchange.Engine in
  let module Pool = Smg_parallel.Pool in
  let gen_tuples =
    match gen_tuples with Some n -> n | None -> if smoke then 2_000 else 100_000
  in
  let gen_p, g, mappings = generated_fixture ~seed ~scale:gen_tuples in
  let source = g.Smg_generate.Gen.g_source.Smg_core.Discover.schema in
  let target = g.Smg_generate.Gen.g_target.Smg_core.Discover.schema in
  let inst = Smg_generate.Gen.source_instance g in
  let src_n = Instance.total_tuples inst in
  let compiled =
    match
      Maintain.prepare
        ~card:(fun n -> Instance.cardinality inst n)
        ~source ~target ~mappings ()
    with
    | Ok c -> c
    | Error m -> failwith ("prepare: " ^ m)
  in
  (* one compiled plan serves both paths; its bulk execution must be a
     deterministic function of the source, domain count included *)
  let rendered domains =
    Pool.with_pool ~domains (fun pool ->
        match Engine.execute ~pool compiled inst with
        | Engine.Complete r -> Smg_serve.Render.exchange_json ~head:[] ~laconic:false r
        | _ -> failwith "bulk execution did not complete")
  in
  if rendered 1 <> rendered 4 then
    failwith "rebuild document differs between 1 and 4 domains";
  let source_digest i =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (List.map
               (fun name ->
                 match Instance.relation i name with
                 | None -> name
                 | Some r ->
                     name ^ ":"
                     ^ String.concat "\x01"
                         (List.sort String.compare
                            (List.map Instance.tuple_key r.Instance.tuples)))
               (List.sort String.compare (Instance.names i)))))
  in
  let base_digest = source_digest inst in
  let st =
    match Maintain.init compiled inst with
    | Ok st -> st
    | Error m -> failwith ("init: " ^ m)
  in
  let fresh_row =
    (* synthesized inserts: values no generated witness produces, typed
       per column, distinct per (fraction, table, row) *)
    let counter = ref 0 in
    fun (t : Schema.table) ->
      incr counter;
      let i = !counter in
      Array.of_list
        (List.mapi
           (fun j (c : Schema.column) ->
             match c.Schema.col_type with
             | Schema.TString -> Value.VString (Printf.sprintf "zz_%d_%d" i j)
             | Schema.TInt -> Value.VInt (1_000_000 + (i * 16) + j)
             | Schema.TFloat -> Value.VFloat (1e6 +. float_of_int ((i * 16) + j))
             | Schema.TBool -> Value.VBool (i mod 2 = 0))
           t.Schema.columns)
  in
  let fractions =
    if smoke then [ 0.01; 0.1; 0.5 ]
    else [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.5 ]
  in
  Fmt.pr
    "incremental: generated fixture %s (%d source tuple(s), %d tgd(s)), \
     fractions %s@.@."
    (Smg_generate.Params.label gen_p)
    src_n (List.length mappings)
    (String.concat "," (List.map (Printf.sprintf "%.3f") fractions));
  Fmt.pr "%9s %8s | %13s %13s | %8s | %s@." "fraction" "ops" "delta ns"
    "rebuild ns" "speedup" "equiv";
  let failures = ref [] in
  let rows =
    List.concat_map
      (fun frac ->
        let step = max 2 (int_of_float (1.0 /. frac)) in
        let cur = Maintain.source st in
        let deletes =
          List.concat_map
            (fun name ->
              match Instance.relation cur name with
              | None -> []
              | Some r ->
                  List.filteri (fun i _ -> i mod step = 0) r.Instance.tuples
                  |> List.map (fun tup -> (name, tup)))
            (List.sort String.compare (Instance.names cur))
        in
        let inserts =
          List.map
            (fun (name, _) ->
              (name, fresh_row (Schema.find_table_exn source name)))
            deletes
        in
        let batch =
          List.map (fun (n, t) -> Batch.Delete (n, t)) deletes
          @ List.map (fun (n, t) -> Batch.Insert (n, t)) inserts
        in
        let ops = List.length batch in
        (* collect the garbage of the untimed source decode and batch
           building above, so the major GC does not run inside the
           timed apply *)
        Gc.full_major ();
        let (st', _), delta_secs =
          Smg_robust.Clock.time (fun () ->
              match Maintain.apply st batch with
              | Ok r -> r
              | Error m -> failwith ("apply: " ^ m))
        in
        let final = Maintain.source st' in
        Gc.full_major ();
        let rep, rebuild_secs =
          Smg_robust.Clock.time (fun () ->
              match Engine.execute compiled final with
              | Engine.Complete r -> r
              | _ -> failwith "rebuild did not complete")
        in
        let equiv =
          Smg_verify.Equiv.equivalent (Maintain.target st')
            rep.Engine.r_target
        in
        if not equiv then
          failures :=
            Printf.sprintf "fraction %.4f: maintained target not ≡hom" frac
            :: !failures;
        let speedup = rebuild_secs /. max 1e-9 delta_secs in
        if (not smoke) && frac <= 0.01 && speedup < 5.0 then
          failures :=
            Printf.sprintf
              "fraction %.4f: delta-maintain only %.1fx over a full rebuild \
               (need >= 5x)"
              frac speedup
            :: !failures;
        (* roll back so the next fraction starts from the base state *)
        let inverse =
          List.map (fun (n, t) -> Batch.Delete (n, t)) inserts
          @ List.map (fun (n, t) -> Batch.Insert (n, t)) deletes
        in
        (match Maintain.apply st' inverse with
        | Ok _ -> ()
        | Error m -> failwith ("rollback: " ^ m));
        if source_digest (Maintain.source st') <> base_digest then
          failwith
            (Printf.sprintf "fraction %.4f: rollback did not restore the base \
                             source" frac);
        Fmt.pr "%9.3f %8d | %13.0f %13.0f | %7.1fx | %b@." frac ops
          (1e9 *. delta_secs) (1e9 *. rebuild_secs) speedup equiv;
        let shot secs = one (Float.round (1e9 *. secs)) in
        [
          row ~seed ~size:ops (Printf.sprintf "delta/%.3f" frac) "ns"
            (shot delta_secs);
          row ~seed ~size:src_n (Printf.sprintf "rebuild/%.3f" frac) "ns"
            (shot rebuild_secs);
        ])
      fractions
  in
  if json then write_rows "incremental" rows;
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun m -> Fmt.epr "error: %s@." m) (List.rev fs);
      exit 1

(* generate: the stress matrix over lib/generate's parameter grid —
   ISA depth × correspondence density × witness scale, fixed companion
   shape (3 roots, 2 reified relationships, a partOf chain). Each cell
   synthesizes a scenario, runs semantic discovery (raw and deduped
   against the RIC baseline) on the focus case, and pushes the witness
   instance through the exchange engine; quality is the best
   candidate's correspondence coverage. Each quality column is its own
   count or ratio row. *)

let generate_matrix json smoke seed =
  let module Gen = Smg_generate.Gen in
  let module Gparams = Smg_generate.Params in
  let module Instance = Smg_relational.Instance in
  let module Mapping = Smg_cq.Mapping in
  let module Discover = Smg_core.Discover in
  let isa_depths = if smoke then [ 0; 2 ] else [ 0; 1; 2 ] in
  let densities = if smoke then [ 1.0 ] else [ 0.5; 0.8; 1.0 ] in
  let scales = if smoke then [ 100 ] else [ 1_000; 10_000; 100_000 ] in
  Fmt.pr
    "generate: isa depth %s × corr density %s × scale %s, seed %d (roots 3, \
     reify 2, partof 1, attrs 2)@.@."
    (String.concat "," (List.map string_of_int isa_depths))
    (String.concat "," (List.map (Printf.sprintf "%.1f") densities))
    (String.concat "," (List.map string_of_int scales))
    seed;
  Fmt.pr "%-22s | %5s %4s %4s | %4s %4s %5s | %8s %8s | %6s | %9s %9s@."
    "cell" "cases" "sem" "ric" "in" "out" "cover" "disc ns" "dedup ns" "src"
    "exch ns" "tgt";
  let cells =
    List.concat_map
      (fun isa ->
        List.concat_map
          (fun density ->
            List.map (fun scale -> (isa, density, scale)) scales)
          densities)
      isa_depths
  in
  let rows =
    List.concat_map
      (fun (isa, density, scale) ->
        let p =
          Gparams.clamp
            {
              Gparams.seed;
              isa_depth = isa;
              n_roots = 3;
              reify = 2;
              partof = 1;
              attrs_per_class = 2;
              corr_density = density;
              scale;
            }
        in
        let g = Gen.build p in
        let source = g.Gen.g_source and target = g.Gen.g_target in
        (* one discovery run per target-table case, like the built-in
           domains' case lists; the cell aggregates over them *)
        let per_case, d =
          measure (fun () ->
              List.map
                (fun (tbl, corrs) ->
                  (tbl, corrs, Discover.discover ~source ~target ~corrs ()))
                g.Gen.g_cases)
        in
        let n_corrs =
          List.fold_left (fun a (_, cs, _) -> a + List.length cs) 0 per_case
        in
        let sem = List.concat_map (fun (_, _, ms) -> ms) per_case in
        let ric =
          List.concat_map
            (fun (_, corrs, _) ->
              Smg_ric.Baseline.generate
                ~source:source.Smg_core.Discover.schema
                ~target:target.Smg_core.Discover.schema ~corrs)
            per_case
        in
        let labelled =
          List.mapi
            (fun i (m : Mapping.t) ->
              Mapping.rename (Printf.sprintf "%s#%d" m.Mapping.m_name (i + 1)) m)
            (sem @ ric)
        in
        let report, dd =
          measure (fun () ->
              Smg_verify.Mapverify.dedup
                ~source:source.Smg_core.Discover.schema
                ~target:target.Smg_core.Discover.schema labelled)
        in
        (* quality: per solved case, the best candidate's correspondence
           coverage, averaged over the cases that produced a candidate *)
        let coverage =
          let covs =
            List.filter_map
              (fun (_, corrs, ms) ->
                match ms with
                | [] -> None
                | (best : Mapping.t) :: _ ->
                    Some
                      (float_of_int (List.length best.Mapping.covered)
                      /. float_of_int (max 1 (List.length corrs))))
              per_case
          in
          match covs with
          | [] -> 0.0
          | _ ->
              List.fold_left ( +. ) 0.0 covs /. float_of_int (List.length covs)
        in
        let solved =
          List.length (List.filter (fun (_, _, ms) -> ms <> []) per_case)
        in
        let inst = Gen.source_instance g in
        let src_n = Instance.total_tuples inst in
        (* every solved case's best mapping, executed together — the
           construction mapdisc serve uses for builtin scenarios *)
        let tgds =
          List.concat_map
            (fun (tbl, _, ms) ->
              match ms with
              | [] -> []
              | best :: _ ->
                  let best = Mapping.rename tbl best in
                  Mapping.outer_variants
                    ~target:target.Smg_core.Discover.schema best)
            per_case
        in
        let exch =
          if tgds = [] then None
          else
            match
              measure (fun () ->
                  match
                    Smg_exchange.Engine.run
                      ~source:source.Smg_core.Discover.schema
                      ~target:target.Smg_core.Discover.schema ~mappings:tgds
                      inst
                  with
                  | Ok rep ->
                      Some
                        (Instance.total_tuples rep.Smg_exchange.Engine.r_target)
                  | Error _ -> None)
            with
            | Some out, e -> Some (out, e)
            | None, _ -> None
        in
        let label = Printf.sprintf "i%d_c%02d_n%d" isa
            (int_of_float (density *. 100.)) scale in
        let dedup_in = report.Smg_verify.Mapverify.rp_in in
        let dedup_kept = List.length report.Smg_verify.Mapverify.rp_kept in
        Fmt.pr
          "%-22s | %2d/%-2d %4d %4d | %4d %4d %4.0f%% | %8.0f %8.0f | %6d | \
           %9s %9s@."
          label solved (List.length per_case) (List.length sem)
          (List.length ric) dedup_in dedup_kept (100. *. coverage) d.median
          dd.median src_n
          (match exch with
           | Some (_, e) -> Printf.sprintf "%.0f" e.median
           | None -> "-")
          (match exch with Some (o, _) -> string_of_int o | None -> "-");
        let row name unit stats =
          row ~seed ~size:src_n
            (Printf.sprintf "generate/%s/%s" label name)
            unit stats
        in
        let count name n = row name "count" (one (float_of_int n)) in
        [
          count "cases" (List.length per_case);
          count "solved_cases" solved;
          count "corrs" n_corrs;
          count "semantic_candidates" (List.length sem);
          count "ric_candidates" (List.length ric);
          count "dedup_in" dedup_in;
          count "dedup_kept" dedup_kept;
          row "coverage" "ratio" (one coverage);
          row "discover" "ns" d;
          row "dedup" "ns" dd;
        ]
        @
        match exch with
        | None -> []
        | Some (out, e) -> [ row "exchange" "ns" e; count "target_tuples" out ])
      cells
  in
  if json then write_rows "generate" rows

(* compose: two-hop round-trip chains (each domain's discovered mapping
   followed by its quasi-inverse into a primed source copy), composed
   into one mapping; sequential two-hop exchange vs composed one-shot,
   with the hom-equivalence verdict. *)

let compose_report json smoke seed size =
  let module Scenario = Smg_eval.Scenario in
  let module Instance = Smg_relational.Instance in
  let module Compose = Smg_compose.Compose in
  let module Invert = Smg_compose.Invert in
  let module Pipeline = Smg_compose.Pipeline in
  let rows_per_table = if smoke then 2 else size in
  Fmt.pr
    "compose: round-trip chains (discovered mapping ; quasi-inverse), %d \
     rows/table, seed %d@.@."
    rows_per_table seed;
  Fmt.pr "%-8s | %7s %5s %8s %7s | %12s %12s %7s | %s@." "domain" "clauses"
    "plain" "residual" "dropped" "seq ns" "composed ns" "speedup" "equiv";
  let bench_rows =
    List.concat_map
      (fun (scen : Scenario.t) ->
        let source = scen.Scenario.source.Smg_core.Discover.schema in
        let target = scen.Scenario.target.Smg_core.Discover.schema in
        let m12 = best_tgds scen in
        if m12 = [] then begin
          Fmt.pr "%-8s | no mapping discovered, skipped@."
            scen.Scenario.scen_name;
          []
        end
        else begin
          let primed = Invert.prime_schema ~suffix:"_rt" source in
          let hops =
            [
              { Pipeline.h_source = source; h_target = target; h_tgds = m12 };
              {
                Pipeline.h_source = target;
                h_target = primed;
                h_tgds = Invert.quasi_inverse ~prime:"_rt" m12;
              };
            ]
          in
          let r = Pipeline.compose_chain ~max_clauses:1024 hops in
          let inst = Smg_eval.Witness.populate ~rows_per_table ~seed source in
          let src_n = Instance.total_tuples inst in
          let seq () =
            match Pipeline.sequential hops inst with
            | Ok _ -> ()
            | Error _ -> failwith "sequential leg failed"
          in
          let comp () =
            match
              Pipeline.one_shot ~source ~target:primed ~exec:r.Compose.c_exec
                inst
            with
            | Ok _ -> ()
            | Error _ -> failwith "composed leg failed"
          in
          let equiv =
            match Pipeline.verify hops ~exec:r.Compose.c_exec inst with
            | Ok vd -> vd.Pipeline.vd_equiv
            | Error _ -> false
          in
          let _, s = measure seq in
          let _, c = measure comp in
          Fmt.pr "%-8s | %7d %5d %8d %7d | %12.0f %12.0f %6.1fx | %b@."
            scen.Scenario.scen_name
            (List.length r.Compose.c_clauses)
            (List.length r.Compose.c_plain)
            (List.length r.Compose.c_residual)
            r.Compose.c_dropped s.median c.median (s.median /. c.median) equiv;
          let tag = String.lowercase_ascii scen.Scenario.scen_name in
          [
            row ~seed ~size:src_n ("sequential/" ^ tag) "ns" s;
            row ~seed ~size:src_n ("composed/" ^ tag) "ns" c;
          ]
        end)
      (Smg_eval.Datasets.all ())
  in
  if json then write_rows "compose" bench_rows

(* serve-load: the HTTP service under concurrent client load, in one
   process — the server runs in its own domain (with its own handler
   pool) on an ephemeral port, client domains drive it over loopback
   sockets. Measures the cold (first-request) latency per scenario
   against the warm (plan-cache hit) latency distribution, and the
   sustained warm throughput. *)

let find_substring hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then Some from else go from

let http_request ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let n = String.length req in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring fd req !off (n - !off)
      done;
      let buf = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 8192 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        try int_of_string (String.sub raw 9 3) with _ -> failwith "bad status"
      in
      let body =
        match find_substring raw "\r\n\r\n" 0 with
        | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
        | None -> ""
      in
      (status, body))

let serve_load json smoke domains clients =
  let cfg =
    {
      Smg_serve.Server.default_config with
      port = 0;
      domains;
      max_inflight = 128;
    }
  in
  let srv = Smg_serve.Server.create cfg in
  let server_domain =
    Domain.spawn (fun () -> ignore (Smg_serve.Server.run srv))
  in
  let port = Smg_serve.Server.port srv in
  let scens =
    if smoke then [ "dblp" ]
    else [ "3sdb"; "amalgam"; "dblp"; "hotel"; "mondial"; "network"; "ut" ]
  in
  let warm_iters = if smoke then 8 else 30 in
  (* small instances: the point of the measurement is the cached
     parse/discover/compile work a warm request skips, so per-request
     chase execution must not drown it *)
  let size = 64 in
  let path scen =
    Printf.sprintf "/scenarios/%s/exchange?size=%d" scen size
  in
  let disc_path scen = Printf.sprintf "/scenarios/%s/discover" scen in
  let timed_post p =
    let (status, _), dt =
      Smg_robust.Clock.time (fun () -> http_request ~port "POST" p "")
    in
    if status <> 200 then failwith (Printf.sprintf "%s -> %d" p status);
    dt
  in
  let row = row ~domains ~seed:cfg.Smg_serve.Server.seed in
  Fmt.pr
    "serve-load: port %d, %d server domain(s), %d client(s), %d scenario(s), \
     size %d@.@."
    port domains clients (List.length scens) size;
  Fmt.pr "%10s %9s | %9s %9s | %7s@." "scenario" "endpoint" "cold ms"
    "p50 ms" "ratio";
  (* cold then warm, per scenario, single client: the cold request pays
     parse + discovery + witness generation + plan compilation, warm
     ones hit the caches. Discover is served entirely from the cache
     when warm; exchange re-executes the chase per request over cached
     plans, so its ratio floors at the execution cost. *)
  let probe scen endpoint ~size p =
    let ns secs = Float.round (1e9 *. secs) in
    let cold = ns (timed_post p) in
    let warm = spread_of (List.init warm_iters (fun _ -> ns (timed_post p))) in
    Fmt.pr "%10s %9s | %9.2f %9.2f | %6.1fx@." scen endpoint (cold /. 1e6)
      (warm.median /. 1e6)
      (cold /. max 1. warm.median);
    let name kind = Printf.sprintf "serve/%s/%s/%s" scen endpoint kind in
    ( cold,
      warm.median,
      [
        row ~size (name "cold") "ns" (one cold);
        row ~size (name "warm") "ns" warm;
      ] )
  in
  let scen_rows =
    List.concat_map
      (fun scen ->
        (* the discover route takes no source instance: size 0 *)
        let cold_d, p50_d, d_rows =
          probe scen "discover" ~size:0 (disc_path scen)
        in
        let cold_e, p50_e, e_rows = probe scen "exchange" ~size (path scen) in
        Fmt.pr "%10s %9s | %19s | %6.1fx@." "" "combined" ""
          ((cold_d +. cold_e) /. max 1. (p50_d +. p50_e));
        d_rows @ e_rows)
      scens
  in
  (* sustained warm throughput: [clients] domains hammer the cached
     scenarios concurrently *)
  let reqs_per_client = if smoke then 10 else 40 in
  let scen_arr = Array.of_list scens in
  let (), wall =
    Smg_robust.Clock.time (fun () ->
        List.init clients (fun c ->
            Domain.spawn (fun () ->
                for i = 0 to reqs_per_client - 1 do
                  let scen = scen_arr.((c + i) mod Array.length scen_arr) in
                  ignore (timed_post (path scen))
                done))
        |> List.iter Domain.join)
  in
  let total = clients * reqs_per_client in
  let rps = float_of_int total /. wall in
  Fmt.pr "@.throughput: %d request(s) over %d client(s) in %.2f s = %.1f \
          req/s@."
    total clients wall rps;
  (* a final metrics scrape doubles as a corruption check: the counters
     must add up to exactly what we sent *)
  let status, metrics_body = http_request ~port "GET" "/metrics" "" in
  if status <> 200 then failwith "metrics scrape failed";
  let counter endpoint =
    (* the endpoint's request counter, scraped textually *)
    let key = Printf.sprintf "\"%s\": {\"requests\": " endpoint in
    match find_substring metrics_body key 0 with
    | None -> -1
    | Some i ->
        let j = ref (i + String.length key) in
        let k = ref !j in
        while
          !k < String.length metrics_body
          && metrics_body.[!k] >= '0'
          && metrics_body.[!k] <= '9'
        do
          incr k
        done;
        if !k > !j then int_of_string (String.sub metrics_body !j (!k - !j))
        else -1
  in
  let check endpoint expected =
    let got = counter endpoint in
    if got <> expected then
      failwith
        (Printf.sprintf "metrics corrupted: %d %s request(s) recorded, %d sent"
           got endpoint expected);
    Fmt.pr "metrics: %d %s request(s) recorded (expected %d)@." got endpoint
      expected
  in
  check "discover" (List.length scens * (1 + warm_iters));
  check "exchange" (List.length scens * (1 + warm_iters) + total);
  Smg_serve.Server.stop srv;
  Domain.join server_domain;
  if json then
    write_rows "serve"
      (scen_rows
      @ [
          row ~size
            (Printf.sprintf "serve/throughput/%d-clients" clients)
            "1/s" (one rps);
        ])

(* robust: the budget layer's bookkeeping cost. The same Mondial
   semantic discovery runs unguarded and under a budget of max_int fuel
   threaded through the Steiner DP and path search: the guarded run
   pays every fuel check and never degrades, so the difference is pure
   bookkeeping. The two runs alternate in pairs, the order flipping
   from pair to pair, so drift in the host's speed lands on both sides
   alike; the overhead is the median of the per-pair ratios. Pairs
   continue until 2 s have passed in total, at least 100 and at most
   2000 of them. *)

let robust json smoke =
  let mondial = builtin "Mondial" in
  let cases =
    if smoke then [ List.hd mondial.Smg_eval.Scenario.cases ]
    else mondial.Smg_eval.Scenario.cases
  in
  let discover budget () =
    List.iter
      (fun case ->
        let budget =
          Option.map (fun fuel -> Smg_robust.Budget.create ~fuel ()) budget
        in
        ignore (Smg_eval.Experiments.run_semantic_bounded ?budget mondial case))
      cases
  in
  let time budget =
    Float.round (1e9 *. snd (Smg_robust.Clock.time (discover budget)))
  in
  (* a discarded pass first: a process's first ~0.1 s of runs read up
     to 10% slower while its major heap grows *)
  ignore (measure (discover None));
  let rec pairs acc n total =
    if n >= 2000 || (n >= 100 && total >= 2e9) then acc
    else
      let u, g =
        if n mod 2 = 0 then
          let u = time None in
          (u, time (Some max_int))
        else
          let g = time (Some max_int) in
          (time None, g)
      in
      pairs ((u, g) :: acc) (n + 1) (total +. u +. g)
  in
  let ps = pairs [] 0 0. in
  let u = spread_of (List.map fst ps) and g = spread_of (List.map snd ps) in
  let ratio = spread_of (List.map (fun (u, g) -> g /. u) ps) in
  Fmt.pr "robust: Mondial semantic discovery, %d case(s), %d pairs@.@."
    (List.length cases) ratio.runs;
  Fmt.pr "%12s %12s | %8s %8s %8s@." "unguarded ns" "guarded ns" "overhead"
    "min" "max";
  Fmt.pr "%12.0f %12.0f | %+7.2f%% %+7.2f%% %+7.2f%%@." u.median g.median
    (100. *. (ratio.median -. 1.))
    (100. *. (ratio.min -. 1.))
    (100. *. (ratio.max -. 1.));
  if json then
    let size = List.length cases in
    write_rows "robust"
      [
        row ~size "discover-unguarded/mondial" "ns" u;
        row ~size "discover-guarded/mondial" "ns" g;
        row ~size "discover-overhead/mondial" "ratio" ratio;
      ]

let cmd_of name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let json_flag bench =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:(Printf.sprintf "Write BENCH_%s.json" bench))

let smoke_flag doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let seed_opt default doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc)

let exchange_scale_cmd =
  let sizes =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "sizes" ] ~docv:"R1,R2,..."
          ~doc:"Rows per source table at each scale point")
  in
  Cmd.v
    (Cmd.info "exchange-scale"
       ~doc:
         "Plan-based exchange engine vs the naive chase at increasing \
          source sizes")
    Term.(
      const exchange_scale $ json_flag "exchange"
      $ smoke_flag "Tiny sizes only (CI smoke test)"
      $ seed_opt 42 "Source seed" $ sizes)

let parallel_scale_cmd =
  let domains =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "domains" ] ~docv:"N1,N2,..."
          ~doc:
            "Domain counts to sweep (default 1,2,4,8); every time is \
             reported relative to the same workload at the first")
  in
  let rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "rows" ] ~docv:"R"
          ~doc:"Rows per source table for the exchange workload (default 256)")
  in
  let gen_tuples =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-tuples" ] ~docv:"N"
          ~doc:
            "Source-instance size for the generated-fixture exchange \
             workload (default 100000; smoke 2000)")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Membership-shard count for the exchange stores (default: one \
             shard per domain in each row)")
  in
  Cmd.v
    (Cmd.info "parallel-scale"
       ~doc:
         "Pooled discovery and exchange at increasing domain counts, with \
          output-invariance checks against the first domain count")
    Term.(
      const parallel_scale $ json_flag "parallel"
      $ smoke_flag "Tiny sizes only (CI smoke test)"
      $ seed_opt 42 "Source seed" $ domains $ rows $ gen_tuples $ shards)

let incremental_cmd =
  let gen_tuples =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-tuples" ] ~docv:"N"
          ~doc:"Source-instance size (default 100000; smoke 2000)")
  in
  Cmd.v
    (Cmd.info "incremental"
       ~doc:
         "Delta-chase maintenance vs a full re-chase across batch sizes on \
          the generated fixture, with per-row homomorphic-equivalence and \
          rollback checks")
    Term.(
      const incremental $ json_flag "incremental"
      $ smoke_flag "Tiny fixture, three fractions (CI smoke test)"
      $ seed_opt 7 "Generator seed" $ gen_tuples)

let compose_cmd =
  let size =
    Arg.(
      value & opt int 4
      & info [ "size" ] ~docv:"ROWS" ~doc:"Rows per source table")
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:
         "Composed one-shot exchange vs the sequential two-hop pipeline on \
          round-trip chains over every domain")
    Term.(
      const compose_report $ json_flag "compose"
      $ smoke_flag "Tiny sizes only (CI smoke test)"
      $ seed_opt 42 "Source seed" $ size)

let generate_cmd =
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Stress matrix over generated scenarios: ISA depth × correspondence \
          density × witness scale, semantic discovery vs the RIC baseline \
          with dedup, exchange at each cell's scale")
    Term.(
      const generate_matrix $ json_flag "generate"
      $ smoke_flag "Two cells at tiny scale (CI smoke test)"
      $ seed_opt 42 "Generator seed")

let serve_load_cmd =
  let domains =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N" ~doc:"Server handler domains")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"C"
          ~doc:"Concurrent client domains for the throughput phase")
  in
  Cmd.v
    (Cmd.info "serve-load"
       ~doc:
         "Cold-vs-warm latency and concurrent throughput of the mapdisc \
          HTTP service (in-process server on an ephemeral port)")
    Term.(
      const serve_load $ json_flag "serve"
      $ smoke_flag "One scenario, few requests (CI)"
      $ domains $ clients)

let robust_cmd =
  Cmd.v
    (Cmd.info "robust"
       ~doc:
         "Budget-check overhead: Mondial semantic discovery unguarded vs \
          under a budget that never runs out")
    Term.(
      const robust $ json_flag "robust"
      $ smoke_flag "The first Mondial case only (CI smoke test)")

let () =
  (* benchmark-sized minor heap (32 MB): with several domains alive on
     few cores, every minor collection is a cross-domain stop-the-world
     handshake — fewer, larger collections keep that tax out of the
     measured loops (applied uniformly, baselines included) *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
  (* fill that heap once so its pages are mapped before anything is
     timed: otherwise the first measured workload pays a page fault per
     4 KB it allocates (Mondial discovery's first 50 runs read ~2x
     slower) *)
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  let m0 = minors () in
  while minors () = m0 do
    ignore (Sys.opaque_identity (Array.make 64 0))
  done;
  let default = Term.(const all $ const ()) in
  let info =
    Cmd.info "experiments" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'A Semantic Approach to Discovering \
         Schema Mapping Expressions' (ICDE 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            Cmd.v
              (Cmd.info "table1"
                 ~doc:
                   "Test-data characteristics and generation time (paper \
                    Table 1)")
              Term.(const table1_report $ json_flag "table1");
            cmd_of "fig6" "Average precision per domain (paper Figure 6)" fig6;
            cmd_of "fig7" "Average recall per domain (paper Figure 7)" fig7;
            cmd_of "cases" "Per-case precision/recall breakdown" cases;
            cmd_of "ablation" "Ablation of the method's ingredients" ablation;
            cmd_of "redundancy"
              "RIC candidates equivalent to / subsumed by semantic candidates"
              redundancy;
            cmd_of "witness"
              "Execute matched mappings vs benchmarks on generated instances"
              witness;
            exchange_scale_cmd;
            serve_load_cmd;
            parallel_scale_cmd;
            incremental_cmd;
            compose_cmd;
            generate_cmd;
            robust_cmd;
            cmd_of "all" "Everything" all;
          ]))
