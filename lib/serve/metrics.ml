(* A ring of the last [window] latencies per endpoint keeps quantile
   memory bounded however long the service runs. *)

let window = 1024

type ep = {
  mutable e_requests : int;
  mutable e_2xx : int;
  mutable e_4xx : int;
  mutable e_5xx : int;
  mutable e_hits : int;
  mutable e_misses : int;
  mutable e_exhausted : int;
  mutable e_bytes_in : int;
  mutable e_bytes_out : int;
  e_lat : float array;
  mutable e_lat_n : int;  (* total recorded; ring index = n mod window *)
}

type t = {
  m_lock : Mutex.t;
  m_eps : (string, ep) Hashtbl.t;
  m_started : float;
  m_inflight : int Atomic.t;
  (* robustness plane: plain atomics — they are bumped from inside
     supervision/retry paths that must never contend on the stats lock *)
  m_retries : int Atomic.t;  (* extra attempts beyond the first *)
  m_retry_ok : int Atomic.t;  (* operations that succeeded after retrying *)
  m_supervised : int Atomic.t;  (* handler exceptions contained as 500s *)
  m_breaker_trips : int Atomic.t;
  m_breaker_shed : int Atomic.t;  (* requests answered 503 by an open breaker *)
  m_timeouts : int Atomic.t;  (* idle connections answered 408 *)
  m_recovered : int Atomic.t;  (* scenarios replayed from the journal *)
  m_recovery_ms : float Atomic.t;  (* startup replay + re-warm latency *)
}

let create () =
  {
    m_lock = Mutex.create ();
    m_eps = Hashtbl.create 8;
    m_started = Smg_robust.Clock.now ();
    m_inflight = Atomic.make 0;
    m_retries = Atomic.make 0;
    m_retry_ok = Atomic.make 0;
    m_supervised = Atomic.make 0;
    m_breaker_trips = Atomic.make 0;
    m_breaker_shed = Atomic.make 0;
    m_timeouts = Atomic.make 0;
    m_recovered = Atomic.make 0;
    m_recovery_ms = Atomic.make 0.;
  }

let inflight t = t.m_inflight

let retried t ~tries ~ok =
  ignore (Atomic.fetch_and_add t.m_retries (max 0 (tries - 1)));
  if ok then ignore (Atomic.fetch_and_add t.m_retry_ok 1)

let supervised t = ignore (Atomic.fetch_and_add t.m_supervised 1)
let breaker_tripped t = ignore (Atomic.fetch_and_add t.m_breaker_trips 1)
let breaker_shed t = ignore (Atomic.fetch_and_add t.m_breaker_shed 1)
let timed_out t = ignore (Atomic.fetch_and_add t.m_timeouts 1)

let recovered t ~scenarios ~seconds =
  ignore (Atomic.fetch_and_add t.m_recovered scenarios);
  Atomic.set t.m_recovery_ms (seconds *. 1000.)

let retries t = Atomic.get t.m_retries
let breaker_trips t = Atomic.get t.m_breaker_trips
let breaker_shed_count t = Atomic.get t.m_breaker_shed
let supervised_count t = Atomic.get t.m_supervised
let timeout_count t = Atomic.get t.m_timeouts
let recovered_count t = Atomic.get t.m_recovered
let recovery_ms t = Atomic.get t.m_recovery_ms

let ep_of t name =
  match Hashtbl.find_opt t.m_eps name with
  | Some e -> e
  | None ->
      let e =
        {
          e_requests = 0;
          e_2xx = 0;
          e_4xx = 0;
          e_5xx = 0;
          e_hits = 0;
          e_misses = 0;
          e_exhausted = 0;
          e_bytes_in = 0;
          e_bytes_out = 0;
          e_lat = Array.make window 0.0;
          e_lat_n = 0;
        }
      in
      Hashtbl.add t.m_eps name e;
      e

let record t ~endpoint ~status ?hit ?(exhausted = false) ~bytes_in ~bytes_out
    ~seconds () =
  Mutex.lock t.m_lock;
  let e = ep_of t endpoint in
  e.e_requests <- e.e_requests + 1;
  if status >= 200 && status < 300 then e.e_2xx <- e.e_2xx + 1
  else if status >= 400 && status < 500 then e.e_4xx <- e.e_4xx + 1
  else if status >= 500 then e.e_5xx <- e.e_5xx + 1;
  (match hit with
  | Some `Hit -> e.e_hits <- e.e_hits + 1
  | Some `Miss -> e.e_misses <- e.e_misses + 1
  | None -> ());
  if exhausted then e.e_exhausted <- e.e_exhausted + 1;
  e.e_bytes_in <- e.e_bytes_in + bytes_in;
  e.e_bytes_out <- e.e_bytes_out + bytes_out;
  e.e_lat.(e.e_lat_n mod window) <- seconds;
  e.e_lat_n <- e.e_lat_n + 1;
  Mutex.unlock t.m_lock

(* nearest-rank quantile over the filled part of the ring *)
let quantile e q =
  let n = min e.e_lat_n window in
  if n = 0 then None
  else begin
    let xs = Array.sub e.e_lat 0 n in
    Array.sort compare xs;
    let idx = min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1) in
    Some xs.(max 0 idx)
  end

let ms = function None -> "null" | Some s -> Printf.sprintf "%.3f" (s *. 1000.)

let shards_json = function
  | None -> "null"
  | Some sv ->
      let ints a =
        "[" ^ String.concat ", " (List.map string_of_int (Array.to_list a)) ^ "]"
      in
      Printf.sprintf
        "{\"shards\": %d, \"tuples\": %s, \"rot\": %s, \"intern_pool\": %d}"
        sv.Smg_exchange.Obs.sv_shards
        (ints sv.Smg_exchange.Obs.sv_tuples)
        (ints sv.Smg_exchange.Obs.sv_rot)
        sv.Smg_exchange.Obs.sv_intern_pool

let to_json ?shards t ~scenarios =
  Mutex.lock t.m_lock;
  let names =
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.m_eps [])
  in
  let ep name =
    let e = Hashtbl.find t.m_eps name in
    Printf.sprintf
      "  %s: {\"requests\": %d, \"2xx\": %d, \"4xx\": %d, \"5xx\": %d, \
       \"cache_hits\": %d, \"cache_misses\": %d, \"budget_exhausted\": %d, \
       \"bytes_in\": %d, \"bytes_out\": %d, \"p50_ms\": %s, \"p95_ms\": %s}"
      (Render.json_str name) e.e_requests e.e_2xx e.e_4xx e.e_5xx e.e_hits
      e.e_misses e.e_exhausted e.e_bytes_in e.e_bytes_out
      (ms (quantile e 0.50))
      (ms (quantile e 0.95))
  in
  let body =
    match names with
    | [] -> "{}"
    | _ -> "{\n" ^ String.concat ",\n" (List.map ep names) ^ "\n }"
  in
  let uptime = Smg_robust.Clock.now () -. t.m_started in
  let s =
    Printf.sprintf
      "{\"uptime_s\": %.3f,\n \"inflight\": %d,\n \"scenarios\": %d,\n \
       \"intern_pool\": %d,\n \"exchange_shards\": %s,\n \
       \"robustness\": {\"retries\": %d, \"retry_success\": %d, \
       \"supervised_errors\": %d, \"breaker_trips\": %d, \"breaker_shed\": \
       %d, \"timeouts_408\": %d, \"recovered_scenarios\": %d, \
       \"recovery_ms\": %.3f},\n \"endpoints\": %s}\n"
      uptime
      (Atomic.get t.m_inflight)
      scenarios
      (Smg_relational.Intern.pool_size ())
      (shards_json shards) (Atomic.get t.m_retries) (Atomic.get t.m_retry_ok)
      (Atomic.get t.m_supervised)
      (Atomic.get t.m_breaker_trips)
      (Atomic.get t.m_breaker_shed)
      (Atomic.get t.m_timeouts)
      (Atomic.get t.m_recovered)
      (Atomic.get t.m_recovery_ms)
      body
  in
  Mutex.unlock t.m_lock;
  s

let pp_summary ppf t =
  Mutex.lock t.m_lock;
  let names =
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.m_eps [])
  in
  List.iter
    (fun name ->
      let e = Hashtbl.find t.m_eps name in
      Fmt.pf ppf
        "  %-12s %5d req  %d/%d/%d 2xx/4xx/5xx  %d hit %d miss  %d \
         exhausted  p95 %s ms@."
        name e.e_requests e.e_2xx e.e_4xx e.e_5xx e.e_hits e.e_misses
        e.e_exhausted
        (ms (quantile e 0.95)))
    names;
  Mutex.unlock t.m_lock
