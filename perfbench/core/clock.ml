(* Every benchmark timing comes from CLOCK_MONOTONIC: wall-clock
   adjustments cannot stretch or shrink a measured interval. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)
