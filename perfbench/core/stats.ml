let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   numpy default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile q xs = quantile_sorted (sorted xs) q
let median xs = quantile 0.5 xs
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let beyond ~n q =
  (* the epsilon keeps 0.99 *. 1000. from rounding up past rank 990 *)
  n - int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let min_beyond = 10

let tail q xs =
  let n = List.length xs in
  let b = beyond ~n q in
  if b < min_beyond then
    Error
      (Printf.sprintf
         "p%g needs at least %d samples beyond it; %d samples leave %d" (100. *. q)
         min_beyond n b)
  else Ok (quantile q xs)

(* An open-loop request: when it was due, when the generator actually
   sent it, and when its response completed, all in ms on one clock. *)
type sent = { due : float; sent : float; completed : float }

let latency s = s.completed -. s.due

let schedule ~start ~interval i = start +. (float_of_int i *. interval)

(* How late the generator itself was: a request due while its
   predecessor is still in flight waits for it at the client (that wait
   is queueing, and counts in [latency]); only the time past
   max(due, predecessor's completion) is the generator's own delay. *)
let lateness xs =
  let rec go prev acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let ready = Float.max s.due prev in
        go s.completed (Float.max 0. (s.sent -. ready) :: acc) rest
  in
  go neg_infinity [] xs
