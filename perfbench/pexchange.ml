(* exchange phase: bulk exchange beside delta maintenance, closed loop,
   one caller, over one generated fixture. Ops run in a fixed rotation
   — cold, warm, a small batch and its inverse, a large batch and its
   inverse — with a full major collection before each op, outside the
   timed region, so every op starts from the same heap. *)

open Perfbench_core
module Gen = Smg_generate.Gen
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Instance = Smg_relational.Instance
module Schema = Smg_relational.Schema
module Engine = Smg_exchange.Engine
module Obs = Smg_exchange.Obs
module Maintain = Smg_delta.Maintain
module Render = Smg_serve.Render

(* The tgds: the best candidate of every per-table case, as
   [experiments generate] builds them. *)
let fixture ~scale =
  let g = Gen.build (Inputs.exchange_params ~scale) in
  let target = g.Gen.g_target.Discover.schema in
  let tgds =
    List.concat_map
      (fun (tbl, corrs) ->
        match
          Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
            ~corrs ()
        with
        | [] -> []
        | best :: _ ->
            let best = Mapping.rename tbl best in
            if best.Mapping.outer then Mapping.outer_variants ~target best
            else [ Mapping.to_tgd best ])
      g.Gen.g_cases
  in
  (g, g.Gen.g_source.Discover.schema, target, tgds)

let complete = function
  | Engine.Complete r -> r
  | Engine.Budget_exhausted _ -> failwith "exchange exhausted a budget it was not given"
  | Engine.Failed msg -> failwith ("exchange failed: " ^ msg)

let ok_or what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

(* Untimed, at a reduced scale: the engine's output is homomorphically
   equivalent to the chase, the independent oracle. *)
let check_oracle () =
  let g, source, target, tgds = fixture ~scale:1000 in
  let inst = Gen.source_instance g in
  let compiled =
    ok_or "compile" (Engine.compile ~laconic:true ~source ~target ~mappings:tgds ())
  in
  let engine = (complete (Engine.execute compiled inst)).Engine.r_target in
  (* the chase keeps both sides in one namespace; the fixture's source
     and target share no table name *)
  Report.check "engine output ≡hom the chase (scale 1000)"
    (match Smg_cq.Chase.exchange ~source ~target ~mappings:tgds inst with
    | Smg_cq.Chase.Saturated c -> Smg_verify.Equiv.equivalent engine c
    | _ -> false)

type state = {
  source : Schema.t;
  inst : Instance.t;
  compiled : Engine.compiled;
  maintained : Maintain.state;
  maintain_plans : Engine.compiled;
}

let setup () =
  let g, source, target, tgds = fixture ~scale:Inputs.exchange_scale in
  let inst = Trace.with_span "generate.populate" (fun () -> Gen.source_instance g) in
  let card = Instance.cardinality inst in
  let compiled, maintain_plans =
    Trace.with_span "exchange.compile" (fun () ->
        ( ok_or "compile"
            (Engine.compile ~card ~laconic:true ~source ~target ~mappings:tgds ()),
          ok_or "prepare" (Maintain.prepare ~card ~source ~target ~mappings:tgds ()) ))
  in
  let maintained =
    Trace.with_span "delta.init" (fun () -> ok_or "init" (Maintain.init maintain_plans inst))
  in
  { source; inst; compiled; maintained; maintain_plans }

(* A physically distinct, structurally equal copy: the engine's
   coded-arena cache keys on the tuple lists' identity, so executing
   the copy pays source interning as a fresh CLI process does. *)
let fresh_copy inst =
  Instance.of_list
    (List.map
       (fun name ->
         let r = Option.get (Instance.relation inst name) in
         (name, { r with Instance.tuples = List.map Array.copy r.Instance.tuples }))
       (Instance.names inst))

(* Skolemized plans name every invented value by its Skolem term, so the
   maintained target and a bulk execution of the same plans normally hold
   the very same facts; equal fact sets are trivially ≡hom, and the
   homomorphism search — which at 10^5 tuples takes minutes and
   gigabytes — only runs when they differ. *)
let same_facts a b =
  let facts i =
    List.sort compare
      (List.concat_map
         (fun name -> List.map (fun t -> (name, t)) (Option.get (Instance.relation i name)).Instance.tuples)
         (Instance.names i))
  in
  facts a = facts b

type kind = Cold | Warm | Small | Large

let kind_name = function
  | Cold -> "exchange.cold_op"
  | Warm -> "exchange.warm_op"
  | Small -> "delta.small_op"
  | Large -> "delta.large_op"

let sum_stats (r : Engine.report) =
  List.fold_left
    (fun (a : Obs.stats) (_, (s : Obs.stats)) ->
      {
        a with
        Obs.n_scanned = a.Obs.n_scanned + s.Obs.n_scanned;
        n_probes = a.n_probes + s.n_probes;
        n_hits = a.n_hits + s.n_hits;
        n_checks = a.n_checks + s.n_checks;
        n_satisfied = a.n_satisfied + s.n_satisfied;
        n_emitted = a.n_emitted + s.n_emitted;
        n_nulls = a.n_nulls + s.n_nulls;
      })
    {
      Obs.n_scanned = 0; n_probes = 0; n_hits = 0; n_misses = 0; n_checks = 0;
      n_satisfied = 0; n_emitted = 0; n_nulls = 0; n_seconds = 0.;
    }
    r.Engine.r_stats

let start ~seed ~seconds ~trace =
  check_oracle ();
  let s = Report.repeated_setup ~phase:"exchange" setup in
  let setup_spans = Trace.all () in
  let rng = Inputs.rng seed 2 in
  (* half of each batch deletes, half inserts: 0.1% and 10% of the source *)
  let batch fraction =
    Inputs.delta_batch rng s.source s.inst
      ~deletes:(int_of_float (fraction *. float_of_int (Instance.total_tuples s.inst) /. 2.))
  in
  let small = batch 0.001 in
  let large = batch 0.1 in
  let reference_size = ref (-1) in
  let last_report = ref None and last_bytes = ref 0 in
  let counters = ref Maintain.zero_counters in
  let exec kind inst =
    let r = Trace.with_span "exchange.execute" (fun () -> complete (Engine.execute s.compiled inst)) in
    let json = Trace.with_span "render.exchange" (fun () -> Render.exchange_json ~head:[] ~laconic:true r) in
    let size = Instance.total_tuples r.Engine.r_target in
    if !reference_size < 0 then reference_size := size;
    last_report := Some r;
    last_bytes := String.length json;
    if size <> !reference_size then
      Error (Printf.sprintf "%s: target size %d, not %d" (kind_name kind) size !reference_size)
    else Ok ()
  in
  let apply batch =
    match Trace.with_span "delta.apply" (fun () -> Maintain.apply s.maintained batch) with
    | Ok (_, c) ->
        counters := Maintain.add_counters !counters c;
        Ok ()
    | Error msg -> Error msg
  in
  let op_id = ref 0 in
  let samples = Hashtbl.create 4 and traced_samples = Hashtbl.create 4 in
  let ops_of = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let copy = ref s.inst in
  (* the rotation; the cold op's fresh copy is made before its timer *)
  let rotation =
    [|
      (Cold, (fun () -> copy := fresh_copy s.inst), fun () -> exec Cold !copy);
      (Warm, ignore, fun () -> exec Warm s.inst);
      (Small, ignore, fun () -> apply (fst small));
      (Small, ignore, fun () -> apply (snd small));
      (Large, ignore, fun () -> apply (fst large));
      (Large, ignore, fun () -> apply (snd large));
    |]
  in
  let cursor = ref 0 and rotations = ref 0 in
  let run_op ~record ~tracing =
    let kind, prepare, f = rotation.(!cursor) in
    prepare ();
    Gc.full_major ();
    incr op_id;
    let r, ms =
      Clock.time_ms (fun () -> if tracing then Trace.with_op !op_id (kind_name kind) f else f ())
    in
    (match r with
    | Error msg -> Report.op_failed "%s" msg
    | Ok () ->
        if record then begin
          Report.op_ok ();
          if tracing then begin
            add traced_samples kind ms;
            add ops_of kind !op_id
          end
          else add samples kind ms
        end);
    cursor := (!cursor + 1) mod Array.length rotation;
    if !cursor = 0 then incr rotations
  in
  (* warm-up rotation, discarded *)
  Array.iter (fun _ -> run_op ~record:false ~tracing:false) rotation;
  let pool_after_warmup = Smg_relational.Intern.pool_size () in
  counters := Maintain.zero_counters;
  rotations := 0;
  let step () = run_op ~record:true ~tracing:(trace && !rotations mod 2 = 0) in
  let window = seconds *. 1000. in
  (* whole rotations only, so every op kind has as many samples *)
  let finished () = !cursor = 0 && !Report.active_ms >= window in
  let finish () =
    (* untimed: the maintained target after batch + inverse pairs is
       ≡hom a bulk execution over the maintained source *)
    let bulk = complete (Engine.execute s.maintain_plans (Maintain.source s.maintained)) in
    Report.check "maintained target ≡hom a bulk execute over Maintain.source"
      (same_facts (Maintain.target s.maintained) bulk.Engine.r_target
      || Smg_verify.Equiv.equivalent (Maintain.target s.maintained) bulk.Engine.r_target);
    let get tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    List.iter
      (fun kind ->
        Printf.eprintf "perfbench: %s samples %s\n" (kind_name kind)
          (String.concat " " (List.rev_map (Printf.sprintf "%.0f") (get samples kind))))
      [ Cold; Warm; Small; Large ];
    Report.median_metric "cold_ms" "ms" (get samples Cold);
    Report.median_metric "warm_ms" "ms" (get samples Warm);
    (* a batch and its inverse cost differently (the inverse deletes the
       fresh tuples and re-inserts the originals), so a median over both
       would sit between two clusters: take the median over pairs of the
       pair's mean apply *)
    let pair_means xs =
      let rec go acc = function a :: b :: rest -> go (((a +. b) /. 2.) :: acc) rest | _ -> acc in
      go [] xs
    in
    Report.median_metric "delta_small_ms" "ms" (pair_means (get samples Small));
    Report.median_metric "delta_large_ms" "ms" (pair_means (get samples Large));
    if trace then begin
      let spans = Trace.all () in
      let in_kind kind = List.filter (fun sp -> List.mem sp.Trace.op (get ops_of kind)) spans in
      let layer kind span = Trace.per_op_ms (in_kind kind) span in
      let setup_ms name = List.map Trace.duration_ms (List.filter (fun sp -> sp.Trace.name = name) setup_spans) in
      Report.median_metric "generate.populate_s" "s" (List.map (fun ms -> ms /. 1000.) (setup_ms "generate.populate"));
      Report.median_metric "exchange.compile_ms" "ms" (setup_ms "exchange.compile");
      Report.median_metric "delta.init_s" "s" (List.map (fun ms -> ms /. 1000.) (setup_ms "delta.init"));
      let cold = layer Cold "exchange.execute" and warm = layer Warm "exchange.execute" in
      Report.median_metric "exchange.execute_cold_ms" "ms" cold;
      Report.median_metric "exchange.execute_warm_ms" "ms" warm;
      Report.metric "relational.intern_ms" "ms" (Stats.median cold -. Stats.median warm);
      Report.median_metric "render.exchange_ms" "ms"
        (layer Cold "render.exchange" @ layer Warm "render.exchange");
      Report.metric "render.exchange_bytes" "bytes" (float_of_int !last_bytes);
      (match !last_report with
      | None -> ()
      | Some r ->
          let st = sum_stats r in
          let f = float_of_int in
          Report.metric "exchange.scanned" "count" (f st.Obs.n_scanned);
          Report.metric "exchange.probes" "count" (f st.Obs.n_probes);
          Report.metric "exchange.hit_ratio" "ratio" (f st.Obs.n_hits /. f (max 1 st.Obs.n_probes));
          Report.metric "exchange.checks" "count" (f st.Obs.n_checks);
          Report.metric "exchange.satisfied_ratio" "ratio" (f st.Obs.n_satisfied /. f (max 1 st.Obs.n_checks));
          Report.metric "exchange.emitted" "count" (f st.Obs.n_emitted);
          Report.metric "exchange.nulls" "count" (f st.Obs.n_nulls);
          Report.metric "exchange.egd_merges" "count" (f r.Engine.r_egd_merges);
          Report.metric "exchange.rounds" "count" (f r.Engine.r_rounds);
          Report.metric "exchange.sweep_dropped" "count" (f r.Engine.r_sweep_dropped));
      let pool = Smg_relational.Intern.pool_size () in
      Report.metric "relational.intern_pool" "count" (float_of_int pool);
      Report.check "intern pool flat after the warm-up rotation" (pool = pool_after_warmup);
      let sv = (Maintain.report s.maintained).Engine.r_shards in
      Report.metric "relational.rot" "count" (float_of_int (Array.fold_left ( + ) 0 sv.Obs.sv_rot));
      Report.median_metric "delta.apply_small_ms" "ms" (pair_means (layer Small "delta.apply"));
      Report.median_metric "delta.apply_large_ms" "ms" (pair_means (layer Large "delta.apply"));
      let c = !counters and per_rot x = float_of_int x /. float_of_int (max 1 !rotations) in
      Report.metric "delta.triggers_seen" "count" (per_rot c.Maintain.mc_triggers_seen);
      Report.metric "delta.fire_ratio" "ratio"
        (float_of_int c.Maintain.mc_triggers_fired /. float_of_int (max 1 c.Maintain.mc_triggers_seen));
      Report.metric "delta.facts_added" "count" (per_rot c.Maintain.mc_facts_added);
      Report.metric "delta.facts_retracted" "count" (per_rot c.Maintain.mc_facts_retracted);
      Report.metric "delta.egd_rebuilds" "count" (per_rot c.Maintain.mc_egd_rebuilds);
      Report.metric "delta.full_rebuilds" "count" (per_rot c.Maintain.mc_full_rebuilds);
      let cold_spans = in_kind Cold in
      Report.median_metric "exchange.unattributed_ms" "ms"
        (List.map (Trace.self_ms cold_spans)
           (List.filter (fun sp -> sp.Trace.name = kind_name Cold) cold_spans));
      Report.metric "exchange.trace_overhead_ms" "ms"
        (Stats.median (get traced_samples Cold) -. Stats.median (get samples Cold))
    end;
    Report.metric "rss.exchange_mb" "MB" (Report.peak_rss_mb "self")
  in
  { Report.planned_ms = window; slack_ms = (fun () -> infinity); step; pause = ignore; finished; finish }
