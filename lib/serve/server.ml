module Budget = Smg_robust.Budget
module Clock = Smg_robust.Clock
module Diag = Smg_robust.Diag
module Fault = Smg_robust.Fault
module Retry = Smg_robust.Retry
module Breaker = Smg_robust.Breaker
module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover
module Mapverify = Smg_verify.Mapverify
module Pipeline = Smg_compose.Pipeline
module Invert = Smg_compose.Invert
module Compose = Smg_compose.Compose

type config = {
  port : int;
  domains : int;
  max_inflight : int;
  budget_ms : int option;
  fuel : int option;
  seed : int;
  preload : bool;
  journal : string option;
  fault : Fault.t option;
  idle_timeout_s : float;
  drain_deadline_s : float;
  retry : Retry.policy;
  breaker : Breaker.config;
  shards : int option;
}

let default_config =
  {
    port = 8080;
    domains = 1;
    max_inflight = 64;
    budget_ms = None;
    fuel = None;
    seed = 42;
    preload = true;
    journal = None;
    fault = None;
    idle_timeout_s = 5.0;
    drain_deadline_s = 10.0;
    retry = Retry.default;
    breaker = Breaker.default_config;
    shards = None;
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  reg : Registry.t;
  met : Metrics.t;
  stop_flag : bool Atomic.t;
  journal : Journal.t option;
  br_lock : Mutex.t;
  breakers : (string, Breaker.t) Hashtbl.t;  (* per scenario name *)
}

(* A served delta journals its instance key as a leading comment line
   ([# key SIZE SEED]) inside the batch text — the batch parser skips
   it, and replay reads it back so the delta lands on the same
   maintained state it mutated live. *)
let delta_key text =
  let default = (1000, 42) in
  match String.index_opt text '\n' with
  | Some i when i > 6 && String.sub text 0 6 = "# key " -> (
      match
        String.split_on_char ' ' (String.trim (String.sub text 6 (i - 6)))
      with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some size, Some seed -> (size, seed)
          | _ -> default)
      | _ -> default)
  | _ -> default

(* Replay the journal into the registry. Each op is retried through
   any injected parse/store faults (the journal is ground truth — a
   recovery must not be derailed by the same chaos it proves against),
   then the recovered DSL entries re-warm their discovery caches so
   the first post-restart request is as warm as the last pre-crash
   one. Builtins are never journaled: a journaled DELETE of one is
   replayed like any other op, after the preload. *)
let recover reg met path =
  let t0 = Clock.now () in
  let ops, _clean = Journal.replay path in
  let apply op =
    let rec attempt n =
      match
        match op with
        | Journal.Put { name; text } -> (
            match Registry.put reg ~name ~text with
            | Ok _ -> `Done (Some name)
            | Error _ -> `Done None (* journaled yet unparsable: skip *))
        | Journal.Delete name ->
            ignore (Registry.remove reg name);
            `Done None
        | Journal.Delta { name; text } -> (
            match Registry.find reg name with
            | None -> `Done None (* delta after a delete: skip *)
            | Some entry -> (
                let schema = entry.Registry.en_source.Discover.schema in
                match Smg_delta.Batch.parse ~schema text with
                | Error _ -> `Done None
                | Ok batch ->
                    let size, seed = delta_key text in
                    ignore (Registry.delta reg ~size ~seed entry batch);
                    `Done (Some name)))
      with
      | `Done r -> r
      | exception Fault.Injected _ when n < 10 -> attempt (n + 1)
      | exception Fault.Injected _ -> None
    in
    attempt 0
  in
  let recovered = List.filter_map apply ops in
  (* the last op for a name wins; warm only names still registered *)
  let warm name =
    match Registry.find reg name with
    | None -> ()
    | Some entry ->
        (try ignore (Registry.entry_tgds reg entry)
         with Fault.Injected _ -> ());
        (try
           ignore (Registry.discover reg ~meth:`Both ~dedup:false entry)
         with Fault.Injected _ -> ())
  in
  (* a later Delete in the journal wins over an earlier Put: only
     names still registered count as recovered *)
  let names =
    List.sort_uniq String.compare recovered
    |> List.filter (fun n -> Option.is_some (Registry.find reg n))
  in
  List.iter warm names;
  Metrics.recovered met ~scenarios:(List.length names)
    ~seconds:(Clock.now () -. t0)

let create cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port) in
  (try Unix.bind fd addr
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 128;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let met = Metrics.create () in
  let reg =
    Registry.create ?fault:cfg.fault ~retry:cfg.retry
      ~on_retry:(fun ~tries ~ok -> Metrics.retried met ~tries ~ok)
      ?shards:cfg.shards ()
  in
  if cfg.preload then Registry.preload_builtins reg;
  let journal =
    match cfg.journal with
    | None -> None
    | Some path ->
        recover reg met path;
        Some (Journal.open_append path)
  in
  {
    cfg;
    listen_fd = fd;
    bound_port;
    reg;
    met;
    stop_flag = Atomic.make false;
    journal;
    br_lock = Mutex.create ();
    breakers = Hashtbl.create 8;
  }

let port t = t.bound_port
let registry t = t.reg
let metrics t = t.met
let stop t = Atomic.set t.stop_flag true

let breaker_for t name =
  Mutex.lock t.br_lock;
  let b =
    match Hashtbl.find_opt t.breakers name with
    | Some b -> b
    | None ->
        let b = Breaker.create ~config:t.cfg.breaker () in
        Hashtbl.add t.breakers name b;
        b
  in
  Mutex.unlock t.br_lock;
  b

(* Durability barrier: the mutation is only acknowledged once its
   journal record is fsynced. The append is retried through injected
   store faults; if it still fails the in-memory entry is rolled back
   so a client retry replays the whole mutation instead of hitting the
   idempotent-PUT cache over an unjournaled entry. *)
let journal_append t op =
  match t.journal with
  | None -> Ok ()
  | Some j ->
      let o =
        Retry.run t.cfg.retry
          ~retryable:(function Fault.Injected _ -> true | _ -> false)
          (fun () ->
            (match t.cfg.fault with
            | Some f -> Fault.fire f Fault.Registry_store
            | None -> ());
            Journal.append j op)
      in
      if o.Retry.tries > 1 then
        Metrics.retried t.met ~tries:o.Retry.tries
          ~ok:(Result.is_ok o.Retry.result);
      o.Retry.result

(* ---- request answering -------------------------------------------------- *)

(* What a route handler produces; [aw_hit]/[aw_exhausted] feed the
   cache and budget counters. *)
type answer = {
  aw_endpoint : string;
  aw_status : int;
  aw_body : string;
  aw_hit : [ `Hit | `Miss ] option;
  aw_exhausted : bool;
  aw_retry_after : int option;  (* Retry-After seconds on 429/503 *)
}

let answer ?hit ?(exhausted = false) ?retry_after aw_endpoint aw_status aw_body
    =
  {
    aw_endpoint;
    aw_status;
    aw_body;
    aw_hit = hit;
    aw_exhausted = exhausted;
    aw_retry_after =
      (match retry_after with
      | Some _ -> retry_after
      | None -> if aw_status = 503 || aw_status = 429 then Some 1 else None);
  }

let error_body ?(diags = []) msg =
  Printf.sprintf "{\"error\": %s,\n \"diagnostics\": %s}\n"
    (Render.json_str msg)
    (match diags with
    | [] -> "[]"
    | _ ->
        "[\n" ^ String.concat ",\n" (List.map Render.json_diag diags) ^ "\n  ]")

let q_int rq name default =
  match Http.query rq name with
  | None -> Ok default
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "query parameter %s: not an integer" name))

let request_budget t rq =
  match (q_int rq "budget_ms" (-1), q_int rq "fuel" (-1)) with
  | Error e, _ | _, Error e -> Error e
  | Ok bms, Ok fl ->
      let deadline_ms =
        Option.map float_of_int
          (if bms >= 0 then Some bms else t.cfg.budget_ms)
      in
      let fuel = if fl >= 0 then Some fl else t.cfg.fuel in
      Ok
        (match (deadline_ms, fuel) with
        | None, None -> None
        | _ -> Some (Budget.create ?deadline_ms ?fuel ()))

let scenario_or_404 t name k =
  match Registry.find t.reg name with
  | Some entry -> k entry
  | None ->
      answer "get" 404
        (error_body (Printf.sprintf "no scenario named %s" name))

(* ---- handlers ----------------------------------------------------------- *)

let handle_put t name body =
  match Registry.put t.reg ~name ~text:body with
  | Error d -> answer "put" 400 (error_body ~diags:[ d ] d.Diag.d_message)
  | Ok (entry, cached) -> (
      match
        if cached then Ok ()
        else journal_append t (Journal.Put { name; text = body })
      with
      | Error exn ->
          ignore (try Registry.remove t.reg name with Fault.Injected _ -> true);
          answer "put" 500
            (error_body
               ~diags:[ Diag.of_exn Diag.Validate exn ]
               "journal append failed; the scenario was not registered")
      | Ok () ->
          let status = if cached then 200 else 201 in
          let hit = if cached then `Hit else `Miss in
          answer ~hit "put" status
            (Printf.sprintf "{\"cached\": %b,\n \"scenario\": %s}\n" cached
               (Registry.info_json t.reg entry)))

let handle_discover t rq entry =
  let meth =
    match Http.query rq "method" with
    | None | Some "both" -> Ok `Both
    | Some "semantic" -> Ok `Semantic
    | Some "ric" -> Ok `Ric
    | Some other ->
        Error (Printf.sprintf "unknown method %s (semantic|ric|both)" other)
  in
  match (meth, request_budget t rq) with
  | Error e, _ | _, Error e -> answer "discover" 400 (error_body e)
  | Ok meth, Ok budget ->
      let dedup = Http.query rq "dedup" = Some "true" in
      let out, hit = Registry.discover t.reg ?budget ~meth ~dedup entry in
      answer ~hit "discover" 200 out.Render.dj_json

let handle_exchange t rq entry =
  match (q_int rq "size" 1000, q_int rq "seed" t.cfg.seed, request_budget t rq) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      answer "exchange" 400 (error_body e)
  | Ok size, Ok seed, Ok budget -> (
      let laconic = Http.query rq "laconic" <> Some "false" in
      match Registry.exchange t.reg ?budget ~size ~seed ~laconic entry with
      | Registry.Ex_ok (body, hit) -> answer ~hit "exchange" 200 body
      | Registry.Ex_partial (_reason, body) ->
          answer ~exhausted:true "exchange" 503 body
      | Registry.Ex_bad msg -> answer "exchange" 400 (error_body msg)
      | Registry.Ex_failed msg -> answer "exchange" 500 (error_body msg))

let handle_verify _t rq (entry : Registry.entry) =
  match q_int rq "limit" 6 with
  | Error e -> answer "verify" 400 (error_body e)
  | Ok limit ->
      let source = entry.Registry.en_source
      and target = entry.Registry.en_target in
      let s_schema = source.Discover.schema
      and t_schema = target.Discover.schema in
      let corrs = entry.Registry.en_corrs in
      let take n xs = List.filteri (fun i _ -> i < n) xs in
      let label tag ms =
        List.mapi
          (fun i m -> Mapping.rename (Printf.sprintf "%s%d" tag (i + 1)) m)
          ms
      in
      let sem = label "S" (take limit (Discover.discover ~source ~target ~corrs ()))
      and ric =
        label "R"
          (take limit
             (Smg_ric.Baseline.generate ~source:s_schema ~target:t_schema
                ~corrs))
      in
      let all = sem @ ric in
      if all = [] then
        answer "verify" 500 (error_body "neither method produced a candidate")
      else begin
        let rp = Mapverify.dedup ~source:s_schema ~target:t_schema all in
        let names =
          Render.json_list
            (fun (m : Mapping.t) -> Render.json_str m.Mapping.m_name)
            rp.Mapverify.rp_kept
        in
        answer "verify" 200
          (Printf.sprintf
             "{\"scenario\": %s,\n \"candidates\": %d,\n \"classes\": %d,\n \
              \"collapsed\": %d,\n \"subsumed\": %d,\n \"kept\": %s}\n"
             (Render.json_str entry.Registry.en_name)
             rp.Mapverify.rp_in (Mapverify.n_classes rp)
             (Mapverify.n_collapsed rp) (Mapverify.n_subsumed rp) names)
      end

(* Incremental source mutation: parse the batch against the scenario's
   source schema, make it durable (journal-first, so a crash between
   the fsync and the in-memory apply replays it), then maintain the
   materialized target through {!Registry.delta}. An empty batch is a
   consistent read of the maintained document and is not journaled. *)
let handle_delta t rq (entry : Registry.entry) =
  match (q_int rq "size" 1000, q_int rq "seed" t.cfg.seed) with
  | Error e, _ | _, Error e -> answer "delta" 400 (error_body e)
  | Ok size, Ok seed -> (
      let schema = entry.Registry.en_source.Discover.schema in
      match Smg_delta.Batch.parse ~schema rq.Http.rq_body with
      | Error m -> answer "delta" 400 (error_body m)
      | Ok batch -> (
          let journaled =
            if batch = [] then Ok ()
            else
              let text =
                Printf.sprintf "# key %d %d\n%s" size seed
                  (Smg_delta.Batch.to_string batch)
              in
              journal_append t
                (Journal.Delta { name = entry.Registry.en_name; text })
          in
          match journaled with
          | Error exn ->
              answer "delta" 500
                (error_body
                   ~diags:[ Diag.of_exn Diag.Validate exn ]
                   "journal append failed; the delta was not applied")
          | Ok () -> (
              match Registry.delta t.reg ~size ~seed entry batch with
              | Registry.Dl_ok body -> answer "delta" 200 body
              | Registry.Dl_bad m -> answer "delta" 400 (error_body m)
              | Registry.Dl_failed m -> answer "delta" 500 (error_body m))))

(* Round-trip composition: the entry's mapping chained with its
   reversal into a primed copy of the source schema — the smallest
   pipeline that exercises {!Smg_compose} end to end. *)
let handle_compose t rq (entry : Registry.entry) =
  match request_budget t rq with
  | Error e -> answer "compose" 400 (error_body e)
  | Ok budget -> (
      match Registry.entry_tgds t.reg entry with
      | Error msg -> answer "compose" 500 (error_body msg)
      | Ok fwd ->
          let src = entry.Registry.en_source.Discover.schema
          and tgt = entry.Registry.en_target.Discover.schema in
          let primed = Invert.prime_schema ~suffix:"_inv" src in
          let hops =
            [
              { Pipeline.h_source = src; h_target = tgt; h_tgds = fwd };
              {
                Pipeline.h_source = tgt;
                h_target = primed;
                h_tgds = Invert.quasi_inverse ~prime:"_inv" fwd;
              };
            ]
          in
          let r = Pipeline.compose_chain ?budget hops in
          let tgds =
            Render.json_list
              (fun tgd ->
                Render.json_str
                  (Fmt.str "%a" Smg_cq.Dependency.pp_tgd tgd))
              r.Compose.c_exec
          in
          let exhausted, diags =
            match r.Compose.c_budget with
            | None -> ("null", [])
            | Some reason ->
                ( Render.json_str (Fmt.str "%a" Budget.pp_reason reason),
                  [
                    Diag.degraded ~subject:entry.Registry.en_name Diag.Verify
                      reason "composition truncated";
                  ] )
          in
          let body =
            Printf.sprintf
              "{\"scenario\": %s,\n \"exact\": %b,\n \"clauses\": %d,\n \
               \"plain\": %d,\n \"residual\": %d,\n \"dropped\": %d,\n \
               \"exhausted\": %s,\n \"tgds\": %s,\n \"diagnostics\": %s}\n"
              (Render.json_str entry.Registry.en_name)
              r.Compose.c_exact
              (List.length r.Compose.c_clauses)
              (List.length r.Compose.c_plain)
              (List.length r.Compose.c_residual)
              r.Compose.c_dropped exhausted tgds
              (match diags with
              | [] -> "[]"
              | _ ->
                  "[\n"
                  ^ String.concat ",\n" (List.map Render.json_diag diags)
                  ^ "\n  ]")
          in
          let status = if r.Compose.c_budget = None then 200 else 503 in
          answer ~exhausted:(r.Compose.c_budget <> None) "compose" status body)

(* ---- routing ------------------------------------------------------------ *)

let route t (rq : Http.request) =
  match (rq.Http.rq_meth, rq.Http.rq_segments) with
  | Http.GET, [ "healthz" ] ->
      let breakers =
        Mutex.lock t.br_lock;
        let l =
          Hashtbl.fold
            (fun name b acc ->
              let st =
                match Breaker.state b with
                | `Closed -> "closed"
                | `Open -> "open"
                | `Half_open -> "half_open"
              in
              (name, st, Breaker.trips b) :: acc)
            t.breakers []
        in
        Mutex.unlock t.br_lock;
        List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) l
      in
      let body =
        Printf.sprintf
          "{\"ok\": true,\n \"scenarios\": %d,\n \"pool\": %d,\n \
           \"journal\": %s,\n \"breakers\": %s}\n"
          (Registry.size t.reg) t.cfg.domains
          (match t.journal with
          | None -> "null"
          | Some j ->
              Printf.sprintf "{\"position\": %d}" (Journal.position j))
          (Render.json_list
             (fun (name, st, trips) ->
               Printf.sprintf
                 "{\"scenario\": %s, \"state\": %s, \"trips\": %d}"
                 (Render.json_str name) (Render.json_str st) trips)
             breakers)
      in
      answer "healthz" 200 body
  | Http.GET, [ "metrics" ] ->
      answer "metrics" 200
        (Metrics.to_json t.met
           ?shards:(Registry.shard_view t.reg)
           ~scenarios:(Registry.size t.reg))
  | Http.GET, [ "scenarios" ] ->
      answer "list" 200
        (Printf.sprintf "{\"scenarios\": %s}\n"
           (Render.json_list Render.json_str (Registry.names t.reg)))
  | Http.PUT, [ "scenarios"; name ] -> handle_put t name rq.Http.rq_body
  | Http.GET, [ "scenarios"; name ] ->
      scenario_or_404 t name (fun entry ->
          answer "get" 200 (Registry.info_json t.reg entry ^ "\n"))
  | Http.DELETE, [ "scenarios"; name ] -> (
      if not (Registry.remove t.reg name) then
        answer "delete" 404
          (error_body (Printf.sprintf "no scenario named %s" name))
      else
        match journal_append t (Journal.Delete name) with
        | Ok () -> answer "delete" 200 "{\"deleted\": true}\n"
        | Error exn ->
            answer "delete" 500
              (error_body
                 ~diags:[ Diag.of_exn Diag.Validate exn ]
                 "journal append failed; the delete is not durable"))
  | Http.POST, [ "scenarios"; name; action ] -> (
      scenario_or_404 t name (fun entry ->
          match action with
          | "discover" -> handle_discover t rq entry
          | "exchange" -> handle_exchange t rq entry
          | "verify" -> handle_verify t rq entry
          | "compose" -> handle_compose t rq entry
          | "delta" -> handle_delta t rq entry
          | _ ->
              answer "other" 404
                (error_body (Printf.sprintf "unknown action %s" action))))
  | _, ("healthz" | "metrics" | "scenarios") :: _ ->
      answer "other" 405 (error_body "method not allowed")
  | _ -> answer "other" 404 (error_body "not found")

(* Supervision: an exception anywhere in a handler — injected or
   genuine — is contained as a diagnosed 500 on this request; the
   domain and the connection live on. *)
let supervise t endpoint f =
  try f ()
  with exn ->
    Metrics.supervised t.met;
    answer endpoint 500
      (error_body
         ~diags:[ Diag.of_exn Diag.Exchange exn ]
         (Printexc.to_string exn))

(* POST actions run behind the scenario's circuit breaker: repeated
   5xx answers trip it and later requests shed immediately with 503 +
   Retry-After instead of burning a domain on work that keeps failing;
   after the cooldown one probe is admitted and its outcome decides
   between closing and re-opening. Only 500s count as failures:
   2xx/3xx/4xx say nothing bad about the scenario's health, and a 503
   budget partial is a successful degraded answer to a client-chosen
   budget, not a fault. *)
let safe_route t rq =
  match (rq.Http.rq_meth, rq.Http.rq_segments) with
  | Http.POST, [ "scenarios"; name; action ] ->
      let br = breaker_for t name in
      (match Breaker.admit br ~now:(Clock.now ()) with
      | Breaker.Shed retry_after ->
          Metrics.breaker_shed t.met;
          answer ~retry_after action 503
            (error_body
               (Printf.sprintf
                  "circuit open for scenario %s: shedding after repeated \
                   failures"
                  name))
      | Breaker.Allow ->
          let before = Breaker.trips br in
          let aw = supervise t action (fun () -> route t rq) in
          if aw.aw_status = 500 then begin
            Breaker.failure br ~now:(Clock.now ());
            if Breaker.trips br > before then Metrics.breaker_tripped t.met
          end
          else Breaker.success br;
          aw)
  | _ -> supervise t "other" (fun () -> route t rq)

(* ---- connection loop ---------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* An idle or stalled peer hit the read/write deadline. *)
exception Conn_timeout

(* An injected socket fault drops the connection mid-exchange. *)
exception Conn_drop

let handle_conn t fd =
  (* the injected socket decisions are drawn once per connection, so
     the fault schedule depends on connection order alone, never on
     how the kernel chunks the byte stream *)
  let rd_fault =
    match t.cfg.fault with
    | Some f -> Fault.decide f Fault.Socket_read
    | None -> None
  in
  let wr_fault () =
    match t.cfg.fault with
    | Some f -> Fault.decide f Fault.Socket_write
    | None -> None
  in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.idle_timeout_s;
  let reads = ref 0 in
  let read buf off len =
    (* a Short read fault delivers the first chunk then fakes EOF, so
       a request spanning reads is seen truncated — a clean 400 *)
    if rd_fault = Some Fault.Short && !reads >= 1 then 0
    else
      match Unix.read fd buf off len with
      | n ->
          incr reads;
          n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise Conn_timeout
  in
  let send resp =
    match wr_fault () with
    | None -> write_all fd resp
    | Some (Fault.Delay s) ->
        if s > 0. then Unix.sleepf s;
        write_all fd resp
    | Some Fault.Raise -> raise Conn_drop
    | Some Fault.Short ->
        (* cut inside the status line: the client sees a torn response
           it can never mistake for a complete one *)
        write_all fd (String.sub resp 0 (min 20 (String.length resp)));
        raise Conn_drop
  in
  let reader = Http.reader read in
  (* bytes consumed up to the last request boundary: when the idle
     deadline strikes, anything past this mark is a half-sent request
     (slowloris) deserving a 408; at the mark, the peer is merely idle
     between keep-alive requests and is closed silently *)
  let boundary = ref 0 in
  let rec loop () =
    let before = Http.bytes_in reader in
    boundary := before;
    let next = Http.next_request reader in
    (* timed from the request's arrival: on a keep-alive connection the
       read above also waits out the client's idle gap *)
    let t0 = Clock.now () in
    match next with
    | Http.Eof -> ()
    | Http.Reject rj ->
        let body = error_body rj.Http.rj_reason in
        let resp = Http.response ~close:true ~status:rj.Http.rj_status body in
        send resp;
        Metrics.record t.met ~endpoint:"reject" ~status:rj.Http.rj_status
          ~bytes_in:(Http.bytes_in reader - before)
          ~bytes_out:(String.length resp)
          ~seconds:(Clock.now () -. t0)
          ()
    | Http.Request rq ->
        let aw = safe_route t rq in
        let keep = Http.keep_alive rq && not (Atomic.get t.stop_flag) in
        let resp =
          Http.response ~close:(not keep) ?retry_after:aw.aw_retry_after
            ~status:aw.aw_status aw.aw_body
        in
        send resp;
        Metrics.record t.met ~endpoint:aw.aw_endpoint ~status:aw.aw_status
          ?hit:aw.aw_hit ~exhausted:aw.aw_exhausted
          ~bytes_in:(Http.bytes_in reader - before)
          ~bytes_out:(String.length resp)
          ~seconds:(Clock.now () -. t0)
          ();
        if keep then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore (Atomic.fetch_and_add (Metrics.inflight t.met) (-1)))
    (fun () ->
      (* the pool_task point fires inside the protect, so an injected
         task death still closes the socket and releases the inflight
         slot; the raise escapes to the dispatcher's supervisor *)
      (match t.cfg.fault with
      | Some f -> Fault.fire f Fault.Pool_task
      | None -> ());
      (match rd_fault with
      | Some Fault.Raise -> raise Conn_drop
      | Some (Fault.Delay s) -> if s > 0. then Unix.sleepf s
      | Some Fault.Short | None -> ());
      try loop () with
      | Unix.Unix_error _ | Conn_drop -> ()
      | Conn_timeout when Http.bytes_in reader > !boundary ->
          (* slowloris containment: the peer went idle with a request
             half-sent; answer 408 and close *)
          Metrics.timed_out t.met;
          let resp =
            Http.response ~close:true ~status:408
              (error_body "connection idle past the read deadline")
          in
          (try send resp with Unix.Unix_error _ | Conn_drop -> ());
          Metrics.record t.met ~endpoint:"timeout" ~status:408 ~bytes_in:0
            ~bytes_out:(String.length resp) ~seconds:t.cfg.idle_timeout_s ()
      | Conn_timeout ->
          (* idle between keep-alive requests: close without ceremony,
             exactly as if the peer had hung up *)
          ())

let too_busy = "{\"error\": \"too many connections\", \"diagnostics\": []}\n"

let accept_loop t dispatch =
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        | fd, _ ->
            let gauge = Metrics.inflight t.met in
            if Atomic.get gauge >= t.cfg.max_inflight then begin
              let resp =
                Http.response ~close:true ~retry_after:1 ~status:429 too_busy
              in
              (try write_all fd resp with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Metrics.record t.met ~endpoint:"admission" ~status:429
                ~bytes_in:0
                ~bytes_out:(String.length resp)
                ~seconds:0.0 ()
            end
            else begin
              ignore (Atomic.fetch_and_add gauge 1);
              dispatch (fun () -> handle_conn t fd)
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run t =
  let finish () =
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Journal.close t.journal
  in
  Fun.protect ~finally:finish (fun () ->
      if t.cfg.domains <= 1 then begin
        (* inline dispatch still supervises: an injected task death
           must not take the accept loop down with it *)
        accept_loop t (fun f ->
            try f () with _ -> Metrics.supervised t.met);
        true
      end
      else begin
        let pool = Smg_parallel.Pool.create ~domains:t.cfg.domains in
        Smg_parallel.Pool.set_supervisor pool (fun _ ->
            Metrics.supervised t.met);
        accept_loop t (Smg_parallel.Pool.submit pool);
        (* bounded drain: serve what we can within the deadline, but a
           stuck request must not turn SIGTERM into a hang — when the
           drain times out the workers are abandoned (joining a stuck
           domain would block forever) and process exit reaps them *)
        let drained =
          Smg_parallel.Pool.drain_timeout pool
            ~seconds:t.cfg.drain_deadline_s
        in
        if drained then Smg_parallel.Pool.shutdown pool;
        drained
      end)
