(* What a phase process tells the parent (main.ml): one record per
   stdout line, [metric NAME UNIT VALUE SAMPLES AS_RUN], [check ok|FAIL WHAT],
   [ready PLANNED_MS] and [sliced DONE] (see [serve_slices]), [probe]
   (answered on stdin with [probed MS], see [calibrate]), and a closing
   [ops ATTEMPTED FAILED]. Diagnostics go to stderr. *)

open Perfbench_core

let attempted = ref 0
let failed = ref 0

let op_ok () = incr attempted

let op_failed fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      incr failed;
      if !failed <= 5 then prerr_endline ("perfbench: failed op: " ^ msg))
    fmt

let check what ok =
  if not ok then prerr_endline ("perfbench: check failed: " ^ what);
  Printf.printf "check %s %s\n%!" (if ok then "ok" else "FAIL") what

(* Ask the parent to time the host-speed probe (Calib) now. *)
let calibrate () =
  print_endline "probe";
  flush stdout;
  Calib.samples := Scanf.sscanf (input_line stdin) "probed %f" Fun.id :: !Calib.samples

(* A timing is reported scaled to the reference host's speed (Calib),
   and a throughput inversely; [~scaled:false] keeps a rate the client
   sets itself. The value as measured follows. *)
let metric name unit ?(samples = 1) ?(scaled = true) value =
  let factor =
    match unit with
    | ("ms" | "s" | "us") when scaled -> 1. /. Calib.slowdown ()
    | "1/s" when scaled -> Calib.slowdown ()
    | _ -> 1.
  in
  Printf.printf "metric %s %s %.17g %d %.17g\n%!" name unit (value *. factor) samples value

let finish () = Printf.printf "ops %d %d\n%!" !attempted !failed

let median_metric name unit xs =
  match xs with
  | [] -> check (name ^ " has samples") false
  | _ -> metric name unit ~samples:(List.length xs) (Stats.median xs)

let tail_metric name unit q xs =
  match Stats.tail q xs with
  | Ok v -> metric name unit ~samples:(List.length xs) v
  | Error msg -> check (Printf.sprintf "%s: %s" name msg) false

(* VmHWM of a process, from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

let setup_reps = 3

(* Set-up runs [setup_reps] times in the phase process and reports the
   median, so one slow repetition cannot move [setup_s]; the last
   repetition's result is kept for the measured phase. [discard] frees a
   repetition's result (a server to stop) before the next begins. *)
let repeated_setup ~phase ?(discard = ignore) setup =
  let rec go i times =
    for _ = 1 to 10 do calibrate () done;
    Gc.full_major ();
    let r, ms = Clock.time_ms setup in
    let times = ms :: times in
    if i + 1 < setup_reps then begin
      discard r;
      go (i + 1) times
    end
    else (r, times)
  in
  let r, times = go 0 [] in
  metric
    (Printf.sprintf "setup.%s_s" phase)
    "s" ~samples:setup_reps
    (Stats.median times /. 1000.);
  r

(* A phase after its set-up. [step] runs one op; [slack_ms] is how long
   until the next op is due (infinite in a closed loop, or before an
   open loop's slice has started); [pause] is called at the end of every
   slice; [finished] says the phase has measured enough; [finish] runs
   the untimed checks and reports. *)
type phase = {
  planned_ms : float;  (** measuring time the phase expects to need *)
  slack_ms : unit -> float;
  step : unit -> unit;
  pause : unit -> unit;
  finished : unit -> bool;
  finish : unit -> unit;
}

(* Measuring time spent in [step] so far. *)
let active_ms = ref 0.

(* The parent hands out measuring time in slices ([slice MS] on stdin),
   taking turns between the three phase processes, so every phase's
   samples spread over the whole run instead of one contiguous stretch:
   this machine's speed drifts by ±25% over tens of seconds, and one
   contiguous window caught one state of it.

   Host-speed probes (Calib) run outside the ops' timings and outside
   [active_ms]: in a closed loop one before every op; in an open loop
   back to back until the next op is due within [probe_slack_ms], so
   that the samples cover its idle time. *)
let probe_slack_ms = 3.

let serve_slices ~phase p =
  Printf.printf "ready %.0f\n%!" p.planned_ms;
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "finish" -> ()
    | line ->
        let ms = Scanf.sscanf line "slice %f" Fun.id in
        let t0 = Clock.now_ns () in
        while (not (p.finished ())) && Clock.ms_since t0 < ms do
          if p.slack_ms () = infinity then calibrate ()
          else while p.slack_ms () > probe_slack_ms do calibrate () done;
          let s0 = Clock.now_ns () in
          p.step ();
          active_ms := !active_ms +. Clock.ms_since s0
        done;
        p.pause ();
        Printf.printf "sliced %b\n%!" (p.finished ());
        loop ()
  in
  loop ();
  p.finish ();
  metric (Printf.sprintf "calib.%s_ms" phase) "ms" ~scaled:false
    ~samples:(List.length !Calib.samples) (Calib.median_ms ())
