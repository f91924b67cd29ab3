(* The host's speed, sampled beside the measured ops.

   The shared 2-vCPU reference machine runs the same code up to 1.7
   times slower for minutes at a time: a warm exchange op took 160 ms in
   one run and 260 ms or 390 ms in others, and no run is long enough to
   average that out. So a fixed probe runs next to every phase's ops,
   outside their timed regions, and each timing is reported scaled to
   the speed at which the probe ran on the reference machine
   (Report.metric); the timing as measured is printed beside it.

   The probe runs in the parent process (main.ml), pinned to the same
   CPU as the phases, at a phase's request: the phase's own heap and
   resident set stay as the program left them.

   The probe is a pseudo-random read-modify-write walk over a 32 MB int
   array, then over its first 256 KB: memory latency, as in exchange's
   hash joins, then cache-resident work, as in discovery. A run taken
   while the host ran 1.65 times faster than during an earlier set of
   five read, scaled, within 0.5% of that set's medians on cold_ms,
   warm_ms, scenario_ms, delta_small_ms and exchange_p50_ms. *)

let words = 4 * 1024 * 1024
let cached_words = 32 * 1024
let table = lazy (Array.make words 0)

let walk t ~mask steps =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = (!x lxor (!x lsr 7)) land mask in
    let v = Array.unsafe_get t i in
    Array.unsafe_set t i (v + !x);
    acc := !acc + (v land 0xFF)
  done;
  !acc

let probe () =
  let t = Lazy.force table in
  walk t ~mask:(words - 1) 60_000 + walk t ~mask:(cached_words - 1) 100_000

(* The probe's median on the reference machine (2-core 2.1 GHz x86-64
   VM), in ms: a scaled timing reads as it would have there. *)
let reference_ms = 0.6

(* Only the third of three back-to-back probes is timed: the first two
   bring the array back into the caches that the op before evicted, so
   the sample does not depend on how much memory that op touched. *)
let time_probe () =
  ignore (Sys.opaque_identity (probe () + probe ()));
  snd (Clock.time_ms (fun () -> ignore (Sys.opaque_identity (probe ()))))

(* The probe times a phase process has received. *)
let samples : float list ref = ref []

let median_ms () = match !samples with [] -> reference_ms | xs -> Stats.median xs

(* > 1 when this process's host ran slower than the reference. *)
let slowdown () = median_ms () /. reference_ms
