let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)
