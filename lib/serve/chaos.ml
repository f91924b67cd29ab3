module Clock = Smg_robust.Clock
module Fault = Smg_robust.Fault
module Retry = Smg_robust.Retry
module Breaker = Smg_robust.Breaker
module Rng = Smg_generate.Rng

type config = {
  c_seed : int;
  c_requests : int;
  c_domains : int;
  c_plan : Fault.plan;
  c_breaker : Breaker.config;
  c_retry : Retry.policy;
  c_journal : string option;
  c_log : string -> unit;
}

(* Probabilities are tuned so a 1000-request run exercises every arm —
   supervised 500s, breaker trips, client-visible socket damage —
   while most requests still come back byte-identical. [Engine_step]
   is consulted once per plan evaluation, so even a small p_raise
   fails a meaningful fraction of exchanges. *)
let default_plan =
  [
    (Fault.Parse, { Fault.quiet with Fault.p_raise = 0.05 });
    (Fault.Registry_store, { Fault.quiet with Fault.p_raise = 0.20 });
    (Fault.Plan_compile, { Fault.quiet with Fault.p_raise = 0.15 });
    ( Fault.Engine_step,
      { Fault.p_raise = 0.01; p_delay = 0.01; delay_s = 0.002; p_short = 0. }
    );
    (Fault.Pool_task, { Fault.quiet with Fault.p_raise = 0.04 });
    ( Fault.Socket_read,
      { Fault.p_raise = 0.02; p_delay = 0.01; delay_s = 0.001; p_short = 0.02 }
    );
    ( Fault.Socket_write,
      { Fault.p_raise = 0.02; p_delay = 0.01; delay_s = 0.001; p_short = 0.02 }
    );
  ]

let no_delay_plan =
  List.map
    (fun (p, s) -> (p, { s with Fault.p_delay = 0.; delay_s = 0. }))
    default_plan

let config ?journal ~seed ~requests ~domains () =
  {
    c_seed = seed;
    c_requests = requests;
    c_domains = domains;
    c_plan = default_plan;
    c_breaker = { Breaker.threshold = 3; cooldown_s = 0.25 };
    c_retry = Retry.default;
    c_journal = journal;
    c_log = (fun _ -> ());
  }

type report = {
  r_seed : int;
  r_requests : int;
  r_domains : int;
  r_identical : int;
  r_retried : int;
  r_shed : int;
  r_partial : int;
  r_clean_error : int;
  r_hangs : int;
  r_crashes : int;
  r_corrupt : int;
  r_client_retries : int;
  r_server_retries : int;
  r_supervised : int;
  r_breaker_trips : int;
  r_breaker_shed : int;
  r_timeouts : int;
  r_injected : (string * int) list;
  r_schedule_digest : string;
  r_outcome_digest : string;
  r_recovered : int;
  r_recovery_ms : float;
  r_recovery_ok : bool;
  r_drained : bool;
  r_seconds : float;
}

(* ---- workload ----------------------------------------------------------- *)

type req = {
  meth : string;
  path : string;
  body : string;
  retry_5xx : bool;
      (* a rolled-back PUT (or a recovery probe) may be replayed on
         5xx; mid-run POSTs may not, so supervised failures stay
         visible to the classifier *)
}

let req ?(retry_5xx = false) meth path body = { meth; path; body; retry_5xx }

let scenario_text ~seed k =
  let module P = Smg_generate.Params in
  let p =
    P.clamp
      {
        P.default with
        P.seed = (seed * 31) + k;
        n_roots = 2;
        attrs_per_class = 2;
        scale = 150;
      }
  in
  Smg_generate.Gen.dsl ~with_data:true (Smg_generate.Gen.build p)

let warm_probe = req ~retry_5xx:true "POST" "/scenarios/chaos_a/exchange?size=48" ""

(* The request list is a pure function of the seed: two generated
   scenarios registered up front, a seeded mix over every endpoint
   (including deliberate bad queries and tiny-fuel budget partials), a
   delete + re-register near the end, and two warm probes whose
   reference bytes the journal-recovery check replays against. *)
let workload cfg =
  let n = max 8 cfg.c_requests in
  let ta = scenario_text ~seed:cfg.c_seed 1
  and tb = scenario_text ~seed:cfg.c_seed 2 in
  let rng = Rng.make (cfg.c_seed lxor 0x5EED) in
  let name () = if Rng.bool rng then "chaos_a" else "chaos_b" in
  let mid () =
    match Rng.int rng 100 with
    | r when r < 40 ->
        let sz = Rng.pick rng [ 24; 48; 96 ] in
        let fuel = if Rng.int rng 12 = 0 then "&fuel=5" else "" in
        req "POST"
          (Printf.sprintf "/scenarios/%s/exchange?size=%d%s" (name ()) sz fuel)
          ""
    | r when r < 65 ->
        let m = Rng.pick rng [ "semantic"; "ric"; "both" ] in
        let d = if Rng.bool rng then "true" else "false" in
        req "POST"
          (Printf.sprintf "/scenarios/%s/discover?method=%s&dedup=%s" (name ())
             m d)
          ""
    | r when r < 75 ->
        req "POST" (Printf.sprintf "/scenarios/%s/verify?limit=4" (name ())) ""
    | r when r < 80 -> req "POST" "/scenarios/chaos_a/compose" ""
    | r when r < 88 -> req "GET" "/scenarios" ""
    | r when r < 94 -> req "GET" "/healthz" ""
    | _ ->
        req "POST"
          (Printf.sprintf "/scenarios/%s/exchange?size=banana" (name ()))
          ""
  in
  (* build the middle sequentially: the rng draw order is the workload
     identity *)
  let rec build k acc = if k = 0 then List.rev acc else build (k - 1) (mid () :: acc) in
  [ req ~retry_5xx:true "PUT" "/scenarios/chaos_a" ta;
    req ~retry_5xx:true "PUT" "/scenarios/chaos_b" tb ]
  @ build (n - 6) []
  @ [
      req "DELETE" "/scenarios/chaos_b" "";
      req ~retry_5xx:true "PUT" "/scenarios/chaos_b" tb;
      warm_probe;
      warm_probe;
    ]

(* ---- a paranoid HTTP client --------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let content_length headers =
  let lower = String.lowercase_ascii headers in
  let key = "content-length:" in
  let rec find i =
    if i + String.length key > String.length lower then None
    else if String.sub lower i (String.length key) = key then begin
      let j = ref (i + String.length key) in
      while !j < String.length lower && lower.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < String.length lower && lower.[!k] >= '0' && lower.[!k] <= '9'
      do
        incr k
      done;
      int_of_string_opt (String.sub lower !j (!k - !j))
    end
    else find (i + 1)
  in
  find 0

(* A reply only counts when the status line parses, the header block
   terminates, and the body length matches the declared
   Content-Length — anything less (a short write, a dropped
   connection) is a torn transport, retried, never mistaken for an
   answer. *)
let parse_reply raw =
  let len = String.length raw in
  if len < 12 || String.sub raw 0 9 <> "HTTP/1.1 " then None
  else
    match int_of_string_opt (String.sub raw 9 3) with
    | None -> None
    | Some status -> (
        let rec split i =
          if i + 4 > len then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
          else split (i + 1)
        in
        match split 0 with
        | None -> None
        | Some b -> (
            let body = String.sub raw b (len - b) in
            match content_length (String.sub raw 0 b) with
            | Some cl when cl <> String.length body -> None
            | _ -> Some (status, body)))

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let once ~port ~deadline_s (r : req) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline_s;
      match
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      with
      | exception Unix.Unix_error _ -> `Down
      | () -> (
          let raw_rq =
            Printf.sprintf
              "%s %s HTTP/1.1\r\nHost: chaos\r\nContent-Length: %d\r\n\
               Connection: close\r\n\r\n%s"
              r.meth r.path (String.length r.body) r.body
          in
          match write_all fd raw_rq with
          | exception Unix.Unix_error _ -> `Torn
          | () -> (
              let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
              let rec drain () =
                match Unix.read fd chunk 0 4096 with
                | 0 -> `Eof
                | k ->
                    Buffer.add_subbytes buf chunk 0 k;
                    drain ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    `Hung
                | exception Unix.Unix_error _ -> `Eof
              in
              match drain () with
              | `Hung -> `Hung
              | `Eof -> (
                  match parse_reply (Buffer.contents buf) with
                  | Some (status, body) -> `Reply (status, body)
                  | None -> `Torn))))

(* Transport damage is retried with a short pause; a 5xx is retried
   only when the request opted in. The final attempt's reply (or
   verdict) is what the classifier sees. A 400 "truncated body" is
   transport damage in disguise: the client sent the whole request, so
   the server must have seen an injected short read — retried like any
   torn connection. *)
let drive ?(max_attempts = 25) ?(sleep_s = 0.002) ~port (r : req) =
  let rec go attempt =
    match once ~port ~deadline_s:10.0 r with
    | `Reply (st, _) when st >= 500 && r.retry_5xx && attempt < max_attempts ->
        Unix.sleepf sleep_s;
        go (attempt + 1)
    | `Reply (400, body)
      when contains body "truncated body" && attempt < max_attempts ->
        Unix.sleepf sleep_s;
        go (attempt + 1)
    | `Reply (st, body) -> `Got (st, body, attempt)
    | `Hung -> `Hang attempt
    | (`Torn | `Down) when attempt < max_attempts ->
        Unix.sleepf sleep_s;
        go (attempt + 1)
    | `Torn -> `Dead attempt
    | `Down -> `Dead attempt
  in
  go 1

(* ---- classification ----------------------------------------------------- *)

type cls =
  | Identical
  | Retried
  | Shed
  | Partial
  | Clean_error
  | Hang
  | Crash
  | Corrupt

let cls_name = function
  | Identical -> "identical"
  | Retried -> "retried"
  | Shed -> "shed"
  | Partial -> "partial"
  | Clean_error -> "clean_error"
  | Hang -> "hang"
  | Crash -> "crash"
  | Corrupt -> "corrupt"

(* /healthz reports live operational state — pool size, journal
   position, breaker states — that legitimately differs between the
   clean reference pass and a faulted run (or between domain counts),
   so it is held to a liveness contract, not a byte contract. *)
let is_healthz (r : req) = r.meth = "GET" && r.path = "/healthz"

let classify (r : req) ~ref_status ~ref_body outcome =
  match outcome with
  | `Hang attempts -> (Hang, 0, "", attempts)
  | `Dead attempts -> (Crash, 0, "", attempts)
  | `Got (st, body, attempts) ->
      let c =
        if is_healthz r && st = 200 && contains body "\"ok\": true" then
          if attempts > 1 then Retried else Identical
        else if st = ref_status && String.equal body ref_body then
          if attempts > 1 then Retried else Identical
        else if st = 503 && contains body "circuit open" then Shed
        else if
          st = 503
          && (contains body "\"complete\": false"
             || contains body "\"exhausted\"")
        then Partial
        else if
          (* a replayed PUT lands on the idempotent cache: 200 with
             cached: true instead of the reference's 201 — the content
             is stored, the retry is sound *)
          r.meth = "PUT"
          && (st = 200 || st = 201)
          && contains body "\"cached\":"
        then Retried
        else if st >= 400 && st < 600 && contains body "\"error\"" then
          Clean_error
        else Corrupt
      in
      (c, st, body, attempts)

(* ---- the harness -------------------------------------------------------- *)

let server_config cfg ~domains ~fault ~journal =
  {
    Server.port = 0;
    domains;
    max_inflight = 64;
    budget_ms = None;
    fuel = None;
    seed = 42;
    preload = false;
    journal;
    fault;
    idle_timeout_s = 5.0;
    drain_deadline_s = 10.0;
    retry = cfg.c_retry;
    breaker = cfg.c_breaker;
    shards = None;
  }

let with_running scfg f =
  let srv = Server.create scfg in
  let d = Domain.spawn (fun () -> Server.run srv) in
  match f srv (Server.port srv) with
  | res ->
      Server.stop srv;
      let drained = Domain.join d in
      (res, drained)
  | exception e ->
      Server.stop srv;
      ignore (Domain.join d);
      raise e

let run cfg =
  let t0 = Clock.now () in
  Option.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    cfg.c_journal;
  let reqs = workload cfg in
  let n = List.length reqs in
  (* 1. the clean run: reference bytes for every request *)
  cfg.c_log (Printf.sprintf "reference pass: %d requests" n);
  let reference = Array.make n (0, "") in
  let (), ref_drained =
    with_running (server_config cfg ~domains:1 ~fault:None ~journal:None)
      (fun _srv port ->
        List.iteri
          (fun i r ->
            match drive ~port r with
            | `Got (st, body, _) -> reference.(i) <- (st, body)
            | `Hang _ | `Dead _ ->
                failwith "chaos: reference pass got no response")
          reqs)
  in
  (* 2. the faulted run *)
  let fault = Fault.create ~seed:cfg.c_seed cfg.c_plan in
  let counts = Hashtbl.create 8 in
  let bump c = Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)) in
  let count c = Option.value ~default:0 (Hashtbl.find_opt counts c) in
  let client_retries = ref 0 in
  let digest_buf = Buffer.create (n * 48) in
  cfg.c_log
    (Printf.sprintf "chaos pass: seed %d, %d domains" cfg.c_seed cfg.c_domains);
  let (s_retries, s_supervised, s_trips, s_shed, s_timeouts), drained =
    with_running
      (server_config cfg ~domains:cfg.c_domains ~fault:(Some fault)
         ~journal:cfg.c_journal)
      (fun srv port ->
        List.iteri
          (fun i r ->
            let ref_status, ref_body = reference.(i) in
            let c, st, body, attempts =
              classify r ~ref_status ~ref_body (drive ~port r)
            in
            bump c;
            (match c with
            | Hang | Crash | Corrupt ->
                cfg.c_log
                  (Printf.sprintf
                     "  CONTRACT %s on #%d %s %s: got %d %S, reference %d %S"
                     (cls_name c) i r.meth r.path st
                     (String.sub body 0 (min 160 (String.length body)))
                     ref_status
                     (String.sub ref_body 0 (min 160 (String.length ref_body))))
            | _ -> ());
            client_retries := !client_retries + attempts - 1;
            Buffer.add_string digest_buf
              (Printf.sprintf "%d:%s:%d:%s\n" i (cls_name c) st
                 (if is_healthz r then "healthz"
                  else Digest.to_hex (Digest.string body)));
            if (i + 1) mod 200 = 0 then
              cfg.c_log (Printf.sprintf "  %d/%d driven" (i + 1) n))
          reqs;
        let m = Server.metrics srv in
        ( Metrics.retries m,
          Metrics.supervised_count m,
          Metrics.breaker_trips m,
          Metrics.breaker_shed_count m,
          Metrics.timeout_count m ))
  in
  (* 3. kill + restart from the journal; the recovered server (itself
     under fresh chaos) must hold every scenario and answer the warm
     probes with the reference bytes *)
  let recovered, recovery_ms, recovery_ok, rec_drained =
    match cfg.c_journal with
    | None -> (0, 0., true, true)
    | Some _ ->
        cfg.c_log "recovery pass: restarting from the journal";
        let fault2 = Fault.create ~seed:(cfg.c_seed + 1) cfg.c_plan in
        let (rec_n, rec_ms, ok), d2 =
          with_running
            (server_config cfg ~domains:cfg.c_domains ~fault:(Some fault2)
               ~journal:cfg.c_journal)
            (fun srv port ->
              let m = Server.metrics srv in
              let names_ok =
                match
                  drive ~max_attempts:50 ~sleep_s:0.02 ~port
                    (req ~retry_5xx:true "GET" "/scenarios" "")
                with
                | `Got (200, body, _) ->
                    contains body "chaos_a" && contains body "chaos_b"
                | _ -> false
              in
              let _, probe_body = reference.(n - 1) in
              let probe_ok () =
                match
                  drive ~max_attempts:50 ~sleep_s:0.02 ~port warm_probe
                with
                | `Got (200, body, _) -> String.equal body probe_body
                | _ -> false
              in
              ( Metrics.recovered_count m,
                Metrics.recovery_ms m,
                names_ok && probe_ok () && probe_ok () ))
        in
        (rec_n, rec_ms, ok, d2)
  in
  {
    r_seed = cfg.c_seed;
    r_requests = n;
    r_domains = cfg.c_domains;
    r_identical = count Identical;
    r_retried = count Retried;
    r_shed = count Shed;
    r_partial = count Partial;
    r_clean_error = count Clean_error;
    r_hangs = count Hang;
    r_crashes = count Crash;
    r_corrupt = count Corrupt;
    r_client_retries = !client_retries;
    r_server_retries = s_retries;
    r_supervised = s_supervised;
    r_breaker_trips = s_trips;
    r_breaker_shed = s_shed;
    r_timeouts = s_timeouts;
    r_injected =
      List.map
        (fun p -> (Fault.point_name p, Fault.injected fault p))
        Fault.all_points;
    r_schedule_digest = Fault.schedule_digest fault;
    r_outcome_digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf));
    r_recovered = recovered;
    r_recovery_ms = recovery_ms;
    r_recovery_ok = recovery_ok;
    r_drained = ref_drained && drained && rec_drained;
    r_seconds = Clock.now () -. t0;
  }

let ok r =
  r.r_hangs = 0 && r.r_crashes = 0 && r.r_corrupt = 0 && r.r_recovery_ok
  && r.r_drained

let survival r =
  if r.r_requests = 0 then 1.
  else
    float_of_int
      (r.r_identical + r.r_retried + r.r_shed + r.r_partial + r.r_clean_error)
    /. float_of_int r.r_requests

let report_json r =
  let injected =
    String.concat ", "
      (List.map
         (fun (name, k) -> Printf.sprintf "\"%s\": %d" name k)
         r.r_injected)
  in
  Printf.sprintf
    "{\"seed\": %d,\n \"requests\": %d,\n \"domains\": %d,\n \"classes\": \
     {\"identical\": %d, \"retried\": %d, \"shed\": %d, \"partial\": %d, \
     \"clean_error\": %d, \"hangs\": %d, \"crashes\": %d, \"corrupt\": %d},\n \
     \"survival\": %.4f,\n \"client_retries\": %d,\n \"server\": \
     {\"retries\": %d, \"supervised\": %d, \"breaker_trips\": %d, \
     \"breaker_shed\": %d, \"timeouts_408\": %d},\n \"faults_injected\": {%s},\n \
     \"schedule_digest\": \"%s\",\n \"outcome_digest\": \"%s\",\n \
     \"recovery\": {\"journaled\": %b, \"recovered_scenarios\": %d, \
     \"recovery_ms\": %.3f, \"ok\": %b},\n \"drained\": %b,\n \"ok\": %b,\n \
     \"seconds\": %.3f}\n"
    r.r_seed r.r_requests r.r_domains r.r_identical r.r_retried r.r_shed
    r.r_partial r.r_clean_error r.r_hangs r.r_crashes r.r_corrupt (survival r)
    r.r_client_retries r.r_server_retries r.r_supervised r.r_breaker_trips
    r.r_breaker_shed r.r_timeouts injected r.r_schedule_digest
    r.r_outcome_digest
    (r.r_recovered > 0 || r.r_recovery_ms > 0.)
    r.r_recovered r.r_recovery_ms r.r_recovery_ok r.r_drained (ok r)
    r.r_seconds

let pp_report ppf r =
  Fmt.pf ppf "chaos seed %d: %d requests over %d domains in %.1fs@."
    r.r_seed r.r_requests r.r_domains r.r_seconds;
  Fmt.pf ppf
    "  identical %d  retried %d  shed %d  partial %d  clean-error %d@."
    r.r_identical r.r_retried r.r_shed r.r_partial r.r_clean_error;
  Fmt.pf ppf "  hangs %d  crashes %d  corrupt %d  survival %.2f%%@." r.r_hangs
    r.r_crashes r.r_corrupt (100. *. survival r);
  Fmt.pf ppf
    "  client retries %d  server retries %d  supervised %d  breaker trips \
     %d  shed %d  408s %d@."
    r.r_client_retries r.r_server_retries r.r_supervised r.r_breaker_trips
    r.r_breaker_shed r.r_timeouts;
  List.iter
    (fun (name, k) -> if k > 0 then Fmt.pf ppf "  injected %-14s %d@." name k)
    r.r_injected;
  Fmt.pf ppf "  schedule %s  outcome %s@." r.r_schedule_digest
    r.r_outcome_digest;
  if r.r_recovered > 0 || r.r_recovery_ms > 0. then
    Fmt.pf ppf "  recovered %d scenario(s) in %.1f ms: %s@." r.r_recovered
      r.r_recovery_ms
      (if r.r_recovery_ok then "byte-identical" else "MISMATCH");
  Fmt.pf ppf "  verdict: %s@."
    (if ok r then "SURVIVED" else "CONTRACT VIOLATED")
