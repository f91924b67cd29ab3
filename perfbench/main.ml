(* The benchmark's entry point.

   perfbench --workload paper|generated --seed N --seconds S --trace 0|1

   A run measures the whole pipeline in three phases — cold discovery,
   exchange beside delta maintenance, open-loop serving — each in its
   own fresh process (this executable re-run with --phase), so no phase
   inherits another's heap. The phases set up one after another, then
   take turns measuring in slices (Report.serve_slices). The parent
   merges what the phases report and prints, last, one JSON object: the
   end-to-end metrics with --trace 0, the per-layer metrics of the
   traced run with --trace 1. *)

let end_to_end =
  [
    "setup_s"; "peak_rss_mb"; "scenario_ms"; "scenario_p90_ms"; "scenarios_per_s";
    "cold_ms"; "warm_ms"; "delta_small_ms"; "delta_large_ms"; "req_p50_ms";
    "req_p99_ms"; "discover_p50_ms"; "exchange_p50_ms"; "delta_p50_ms"; "achieved_rps";
  ]

let per_layer =
  [
    "setup.discover_s"; "setup.exchange_s"; "setup.serve_s";
    "rss.discover_mb"; "rss.exchange_mb"; "rss.serve_mb";
    "dsl.parse_ms"; "cm.lower_ms"; "core.lint_ms"; "core.discover_ms";
    "core.candidates"; "core.approximate"; "ric.baseline_ms"; "ric.candidates";
    "verify.dedup_ms"; "verify.kept_ratio"; "render.discover_ms";
    "render.discover_bytes"; "discover.unattributed_ms"; "discover.trace_overhead_ms";
    "generate.populate_s"; "exchange.compile_ms"; "delta.init_s";
    "exchange.execute_cold_ms"; "exchange.execute_warm_ms"; "relational.intern_ms";
    "render.exchange_ms"; "render.exchange_bytes"; "exchange.scanned";
    "exchange.probes"; "exchange.hit_ratio"; "exchange.checks";
    "exchange.satisfied_ratio"; "exchange.emitted"; "exchange.nulls";
    "exchange.egd_merges"; "exchange.rounds"; "exchange.sweep_dropped";
    "exchange.unattributed_ms"; "exchange.trace_overhead_ms";
    "relational.intern_pool"; "relational.rot"; "delta.apply_small_ms";
    "delta.apply_large_ms"; "delta.triggers_seen"; "delta.fire_ratio";
    "delta.facts_added"; "delta.facts_retracted"; "delta.egd_rebuilds";
    "delta.full_rebuilds"; "serve.http_parse_us"; "serve.registry_discover_ms";
    "serve.registry_exchange_ms"; "serve.registry_delta_ms";
    "serve.server_discover_p50_ms"; "serve.server_exchange_p50_ms";
    "serve.server_delta_p50_ms"; "serve.wire_ms"; "serve.late_ms";
    "calib.discover_ms"; "calib.exchange_ms"; "calib.serve_ms";
  ]

(* Each phase's share of --seconds. *)
let phases = [ ("discover", 0.25); ("exchange", 0.6); ("serve", 0.15) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|generated --seed N --seconds S --trace 0|1 \
     [--mapdisc PATH]";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let trace_dir = ".perfbench"

let run_phase a ~phase =
  let get k = match Hashtbl.find_opt a k with Some v -> v | None -> usage () in
  let workload = Option.get (Inputs.workload_of_string (get "workload")) in
  let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  Perfbench_core.Trace.enabled := trace;
  (* a vanished parent surfaces as an exception, so the serve phase
     still stops its server *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fun.protect ~finally:Pserve.stop_all (fun () ->
      Report.serve_slices ~phase
        (match phase with
        | "discover" -> Pdiscover.start ~workload ~seed ~seconds ~trace
        | "exchange" -> Pexchange.start ~seed ~seconds ~trace
        | "serve" -> Pserve.start ~mapdisc:(get "mapdisc") ~workload ~seed ~seconds ~trace
        | _ -> usage ()));
  if trace then begin
    (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Perfbench_core.Trace.write
      (Printf.sprintf "%s/trace-%s-%s-seed%d.jsonl" trace_dir (get "workload") phase seed)
  end;
  Report.finish ()

type merged = {
  mutable metrics : (string * (string * float * int)) list;
  mutable as_run : (string * float) list;  (** values before scaling *)
  mutable checks_ok : bool;
  mutable attempted : int;
  mutable failed : int;
}

type child = { phase : string; ic : in_channel; oc : out_channel; mutable planned : float }

let command c line =
  output_string c.oc (line ^ "\n");
  flush c.oc

(* Read a child's records up to (and returning) the first line that
   starts with [until], or to end of file when [until] is "". *)
let rec read_until m c until =
  match input_line c.ic with
  | exception End_of_file -> None
  | line -> (
      match String.split_on_char ' ' line with
      | [ "metric"; name; unit; value; samples; as_run ] ->
          m.metrics <- (name, (unit, float_of_string value, int_of_string samples)) :: m.metrics;
          m.as_run <- (name, float_of_string as_run) :: m.as_run;
          read_until m c until
      | "check" :: "FAIL" :: _ ->
          m.checks_ok <- false;
          read_until m c until
      | [ "probe" ] ->
          command c (Printf.sprintf "probed %.6f" (Perfbench_core.Calib.time_probe ()));
          read_until m c until
      | [ "ops"; a; f ] ->
          m.attempted <- m.attempted + int_of_string a;
          m.failed <- m.failed + int_of_string f;
          read_until m c until
      | word :: rest when until <> "" && word = until -> Some rest
      | _ -> read_until m c until)

let spawned = ref []

(* On failure, every phase still running is told to stop (end of its
   input) and waited for before the parent exits. *)
let fail_phase c =
  Printf.eprintf "perfbench: the %s phase failed\n%!" c.phase;
  List.iter (fun c -> ignore (Unix.close_process (c.ic, c.oc))) !spawned;
  exit 1

let spawn_phase m ~phase ~seconds argv =
  let exe = Sys.executable_name in
  let args =
    Array.append [| exe; "--phase"; phase |]
      (Array.concat
         (List.map (fun (k, v) -> [| "--" ^ k; v |])
            (("seconds", Printf.sprintf "%.3f" seconds) :: List.remove_assoc "seconds" argv)))
  in
  let ic, oc = Unix.open_process_args exe args in
  let c = { phase; ic; oc; planned = 0. } in
  spawned := c :: !spawned;
  (match read_until m c "ready" with
  | Some [ planned ] -> c.planned <- float_of_string planned
  | _ -> fail_phase c);
  c

(* Cycle through the phases in slices proportional to the measuring time
   each expects, until each reports it has measured enough. *)
let slice_cycle_ms = 4000.

let interleave m children =
  let total = List.fold_left (fun a c -> a +. c.planned) 0. children in
  let rec go = function
    | [] -> ()
    | active ->
        go
          (List.filter
             (fun c ->
               command c
                 (Printf.sprintf "slice %.0f"
                    (Float.max 250. (slice_cycle_ms *. c.planned /. total)));
               match read_until m c "sliced" with
               | Some [ "false" ] -> true
               | Some [ "true" ] -> false
               | _ -> fail_phase c)
             active)
  in
  go children;
  List.iter
    (fun c ->
      command c "finish";
      ignore (read_until m c "");
      spawned := List.filter (fun d -> d != c) !spawned;
      match Unix.close_process (c.ic, c.oc) with
      | Unix.WEXITED 0 -> ()
      | _ -> fail_phase c)
    children

let git_rev () =
  match In_channel.with_open_text ".git/HEAD" input_line with
  | exception Sys_error _ -> "unknown"
  | head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match In_channel.with_open_text (".git/" ^ r) input_line with
          | exception Sys_error _ -> "unknown"
          | rev -> rev)
      | _ -> head)

let () =
  let a = args () in
  match Hashtbl.find_opt a "phase" with
  | Some phase -> run_phase a ~phase
  | None ->
      let get k = match Hashtbl.find_opt a k with Some v -> v | None -> usage () in
      let wname = get "workload" in
      let workload =
        match Inputs.workload_of_string wname with Some w -> w | None -> usage ()
      in
      let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
      let seconds =
        match float_of_string_opt (get "seconds") with Some s when s > 0. -> s | _ -> usage ()
      in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      let mapdisc = Option.value ~default:"_build/default/bin/mapdisc.exe" (Hashtbl.find_opt a "mapdisc") in
      if not (Sys.file_exists mapdisc && Sys.file_exists "scenarios") then begin
        prerr_endline "perfbench: run from the repository root after building bin/mapdisc.exe";
        exit 1
      end;
      let argv =
        [ ("workload", wname); ("seed", string_of_int seed); ("seconds", "");
          ("trace", if trace then "1" else "0"); ("mapdisc", mapdisc) ]
      in
      let m = { metrics = []; as_run = []; checks_ok = true; attempted = 0; failed = 0 } in
      (* set-ups run one after another; measuring is interleaved *)
      interleave m
        (List.map (fun (phase, share) -> spawn_phase m ~phase ~seconds:(share *. seconds) argv) phases);
      let find name = List.assoc_opt name m.metrics in
      let sum_of names = List.fold_left (fun acc n -> match find n with Some (_, v, _) -> acc +. v | None -> nan) 0. names in
      let max_of names = List.fold_left (fun acc n -> match find n with Some (_, v, _) -> Float.max acc v | None -> nan) 0. names in
      m.metrics <-
        ("setup_s", ("s", sum_of [ "setup.discover_s"; "setup.exchange_s"; "setup.serve_s" ], Report.setup_reps))
        :: ("peak_rss_mb", ("MB", max_of [ "rss.discover_mb"; "rss.exchange_mb"; "rss.serve_mb" ], 3))
        :: m.metrics;
      let setup_as_run =
        List.fold_left
          (fun acc n -> acc +. Option.value ~default:nan (List.assoc_opt n m.as_run))
          0. [ "setup.discover_s"; "setup.exchange_s"; "setup.serve_s" ]
      in
      m.as_run <- ("setup_s", setup_as_run) :: m.as_run;
      let wanted = if trace then per_layer else end_to_end in
      let missing = List.filter (fun n -> match find n with Some (_, v, _) -> Float.is_nan v | None -> true) wanted in
      if missing <> [] then begin
        Printf.eprintf "perfbench: no value for %s\n%!" (String.concat ", " missing);
        exit 1
      end;
      List.iter
        (fun n ->
          let unit, v, samples = Option.get (find n) in
          Printf.printf "%-32s %14.4f %-6s (%d samples; %.4f as run)\n" n v unit samples
            (Option.value ~default:v (List.assoc_opt n m.as_run)))
        wanted;
      Printf.printf
        "{\"config\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
         \"domains\": 1, \"shards\": 1, \"exchange_scale\": %d, \"offered_rps\": %g, \
         \"nproc\": %d, \"git_rev\": \"%s\"}}\n"
        wname seed seconds trace Inputs.exchange_scale (Pserve.offered_rps workload)
        (* the run is pinned to one CPU, so the count comes from run.sh *)
        (match Option.bind (Hashtbl.find_opt a "nproc") int_of_string_opt with
        | Some n -> n
        | None -> Domain.recommended_domain_count ())
        (git_rev ());
      let correct = m.checks_ok && m.failed = 0 in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        correct m.attempted m.failed
        (String.concat ", "
           (List.map
              (fun n ->
                let unit, v, _ = Option.get (find n) in
                Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v unit)
              wanted))
