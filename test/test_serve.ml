(* The HTTP service: strict parser behaviour on hostile input (fixtures
   and random fuzz — never an exception, always a definite status),
   registry caching semantics, CLI/served JSON byte-parity for every
   built-in domain warm and cold, admission control, budget-exhausted
   responses, and metrics integrity under concurrent client domains. *)

module Http = Smg_serve.Http
module Render = Smg_serve.Render
module Registry = Smg_serve.Registry
module Server = Smg_serve.Server
module Metrics = Smg_serve.Metrics
module Engine = Smg_exchange.Engine
module Discover = Smg_core.Discover
module Scenario = Smg_eval.Scenario

let in_tree path =
  if Sys.file_exists path then path else Filename.concat "../../.." path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let books_src = lazy (read_file (in_tree "scenarios/books.smg"))

(* ---- parser: well-formed input ------------------------------------------ *)

let parse_one ?limits ?chunk s = Http.next_request (Http.of_string ?limits ?chunk s)

let get_request = function
  | Http.Request rq -> rq
  | Http.Reject rj -> Alcotest.failf "rejected: %d %s" rj.Http.rj_status rj.Http.rj_reason
  | Http.Eof -> Alcotest.fail "eof"

let reject_status = function
  | Http.Reject rj -> rj.Http.rj_status
  | Http.Request _ -> Alcotest.fail "parsed instead of rejected"
  | Http.Eof -> Alcotest.fail "eof instead of reject"

let test_parse_get () =
  let rq =
    get_request
      (parse_one "GET /scenarios/dblp?method=both&dedup=true HTTP/1.1\r\nHost: x\r\n\r\n")
  in
  Alcotest.(check bool) "meth" true (rq.Http.rq_meth = Http.GET);
  Alcotest.(check (list string)) "segments" [ "scenarios"; "dblp" ] rq.Http.rq_segments;
  Alcotest.(check (option string)) "query" (Some "both") (Http.query rq "method");
  Alcotest.(check (option string)) "query2" (Some "true") (Http.query rq "dedup");
  Alcotest.(check string) "body" "" rq.Http.rq_body;
  Alcotest.(check bool) "keep-alive" true (Http.keep_alive rq)

let test_parse_percent_decode () =
  let rq =
    get_request (parse_one "PUT /scenarios/scenarios%2Fbooks.smg HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check (list string)) "decoded segment"
    [ "scenarios"; "scenarios/books.smg" ]
    rq.Http.rq_segments

let test_parse_body () =
  let rq =
    get_request
      (parse_one "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
  in
  Alcotest.(check string) "body" "hello" rq.Http.rq_body

let test_parse_missing_length_means_empty () =
  let rq = get_request (parse_one "POST /x HTTP/1.1\r\n\r\n") in
  Alcotest.(check string) "empty body" "" rq.Http.rq_body

let test_parse_byte_at_a_time () =
  (* the buffered reader must reassemble a request delivered one byte
     per read call *)
  let rq =
    get_request
      (parse_one ~chunk:1 "POST /x/y HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
  in
  Alcotest.(check string) "body" "abc" rq.Http.rq_body;
  Alcotest.(check (list string)) "segments" [ "x"; "y" ] rq.Http.rq_segments

let test_parse_pipelined () =
  let r =
    Http.of_string
      "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\nConnection: close\r\n\r\n"
  in
  let a = get_request (Http.next_request r) in
  let b = get_request (Http.next_request r) in
  let c = get_request (Http.next_request r) in
  Alcotest.(check (list string)) "first" [ "a" ] a.Http.rq_segments;
  Alcotest.(check string) "second body" "hi" b.Http.rq_body;
  Alcotest.(check bool) "third closes" false (Http.keep_alive c);
  Alcotest.(check bool) "eof after" true (Http.next_request r = Http.Eof)

let test_keep_alive_rules () =
  let ka s = Http.keep_alive (get_request (parse_one s)) in
  Alcotest.(check bool) "1.1 default" true (ka "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "1.1 close" false
    (ka "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 keep-alive" true
    (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

(* ---- parser: hostile input ---------------------------------------------- *)

let test_reject_malformed_line () =
  List.iter
    (fun s -> Alcotest.(check int) s 400 (reject_status (parse_one s)))
    [
      "GET\r\n\r\n";
      "GET /\r\n\r\n";
      "GET / HTTP/1.1 extra\r\n\r\n";
      "GET nopath HTTP/1.1\r\n\r\n";
      "GET / HTTP/2.0\r\n\r\n";
      "GET / FTP/1.1\r\n\r\n";
      " / HTTP/1.1\r\n\r\n";
    ]

let test_reject_unknown_method () =
  Alcotest.(check int) "PATCH" 405
    (reject_status (parse_one "PATCH /x HTTP/1.1\r\n\r\n"));
  Alcotest.(check int) "lowercase" 405
    (reject_status (parse_one "get /x HTTP/1.1\r\n\r\n"))

let test_reject_bad_escape () =
  Alcotest.(check int) "bad hex" 400
    (reject_status (parse_one "GET /a%zz HTTP/1.1\r\n\r\n"));
  Alcotest.(check int) "truncated" 400
    (reject_status (parse_one "GET /a%2 HTTP/1.1\r\n\r\n"));
  Alcotest.(check int) "encoded control" 400
    (reject_status (parse_one "GET /a%00b HTTP/1.1\r\n\r\n"))

let test_reject_long_line () =
  let s = "GET /" ^ String.make 10_000 'a' ^ " HTTP/1.1\r\n\r\n" in
  Alcotest.(check int) "413" 413 (reject_status (parse_one s))

let test_reject_header_bomb () =
  let headers =
    String.concat "" (List.init 100 (fun i -> Printf.sprintf "H%d: v\r\n" i))
  in
  Alcotest.(check int) "too many headers" 413
    (reject_status (parse_one ("GET / HTTP/1.1\r\n" ^ headers ^ "\r\n")))

let test_reject_bad_content_length () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check int) name 400 (reject_status (parse_one s)))
    [
      ("not a number", "POST / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n");
      ("negative", "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n");
      ( "duplicated",
        "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab" );
      ("chunked", "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
      ("truncated body", "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
      ("malformed header", "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
    ]

let test_reject_oversized_body () =
  let limits = { Http.default_limits with Http.max_body = 100 } in
  Alcotest.(check int) "declared too large" 413
    (reject_status
       (parse_one ~limits "POST / HTTP/1.1\r\nContent-Length: 101\r\n\r\n"))

let prop_parser_never_raises =
  (* whatever the wire bytes, the parser returns events — it never
     raises, and rejects carry a definite 4xx status *)
  QCheck.Test.make ~name:"http parser total on random bytes" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    (fun s ->
      let r = Http.of_string ~chunk:7 s in
      let rec drain n =
        if n > 64 then true
        else
          match Http.next_request r with
          | Http.Eof -> true
          | Http.Reject rj ->
              rj.Http.rj_status >= 400 && rj.Http.rj_status < 500
          | Http.Request _ -> drain (n + 1)
      in
      drain 0)

let prop_parser_roundtrip =
  (* a well-formed request with a random body always parses back to the
     same method, path, and body, at any read-chunk granularity *)
  QCheck.Test.make ~name:"http parser roundtrip" ~count:200
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_range 0 200) Gen.printable)
        (int_range 1 16))
    (fun (body, chunk) ->
      let s =
        Printf.sprintf "POST /a/b?k=v HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
          (String.length body) body
      in
      match Http.next_request (Http.of_string ~chunk s) with
      | Http.Request rq ->
          rq.Http.rq_meth = Http.POST
          && rq.Http.rq_segments = [ "a"; "b" ]
          && rq.Http.rq_body = body
      | _ -> false)

(* ---- registry ----------------------------------------------------------- *)

let test_registry_put_hash_dedup () =
  let reg = Registry.create () in
  let text = Lazy.force books_src in
  let e1, cached1 =
    match Registry.put reg ~name:"books" ~text with
    | Ok r -> r
    | Error d -> Alcotest.failf "put: %s" d.Smg_robust.Diag.d_message
  in
  Alcotest.(check bool) "first put is new" false cached1;
  let e2, cached2 =
    match Registry.put reg ~name:"books" ~text with
    | Ok r -> r
    | Error d -> Alcotest.failf "re-put: %s" d.Smg_robust.Diag.d_message
  in
  Alcotest.(check bool) "same content hits" true cached2;
  Alcotest.(check string) "same hash" e1.Registry.en_hash e2.Registry.en_hash;
  (* different content under the same name replaces the entry *)
  let e3, cached3 =
    match Registry.put reg ~name:"books" ~text:(text ^ "\n# touched\n") with
    | Ok r -> r
    | Error d -> Alcotest.failf "replace: %s" d.Smg_robust.Diag.d_message
  in
  Alcotest.(check bool) "changed content misses" false cached3;
  Alcotest.(check bool) "hash changed" true
    (e1.Registry.en_hash <> e3.Registry.en_hash)

let test_registry_put_rejects_garbage () =
  let reg = Registry.create () in
  (match Registry.put reg ~name:"bad" ~text:"schema only {" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error accepted");
  match Registry.put reg ~name:"half" ~text:"schema s { table t { col x : int; } }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "one-sided scenario accepted"

let test_registry_discover_cache () =
  let reg = Registry.create () in
  let entry =
    match Registry.put reg ~name:"books" ~text:(Lazy.force books_src) with
    | Ok (e, _) -> e
    | Error d -> Alcotest.failf "put: %s" d.Smg_robust.Diag.d_message
  in
  let out1, hit1 = Registry.discover reg ~meth:`Both ~dedup:false entry in
  let out2, hit2 = Registry.discover reg ~meth:`Both ~dedup:false entry in
  Alcotest.(check bool) "cold misses" true (hit1 = `Miss);
  Alcotest.(check bool) "warm hits" true (hit2 = `Hit);
  Alcotest.(check string) "same bytes" out1.Render.dj_json out2.Render.dj_json;
  let _, hit3 = Registry.discover reg ~meth:`Semantic ~dedup:false entry in
  Alcotest.(check bool) "distinct variant misses" true (hit3 = `Miss)

let test_registry_exchange_cache_and_bytes () =
  let reg = Registry.create () in
  Registry.preload_builtins reg;
  let entry = Option.get (Registry.find reg "dblp") in
  let body1, hit1 =
    match Registry.exchange reg ~size:64 entry with
    | Registry.Ex_ok (b, h) -> (b, h)
    | _ -> Alcotest.fail "cold exchange failed"
  in
  let body2, hit2 =
    match Registry.exchange reg ~size:64 entry with
    | Registry.Ex_ok (b, h) -> (b, h)
    | _ -> Alcotest.fail "warm exchange failed"
  in
  Alcotest.(check bool) "cold compiles" true (hit1 = `Miss);
  Alcotest.(check bool) "warm reuses the plan" true (hit2 = `Hit);
  Alcotest.(check string) "byte-identical warm vs cold" body1 body2

(* ---- server over real sockets ------------------------------------------- *)

let http_request ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let n = String.length req in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring fd req !off (n - !off)
      done;
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status = int_of_string (String.sub raw 9 3) in
      let body =
        let rec find i =
          if i + 4 > String.length raw then ""
          else if String.sub raw i 4 = "\r\n\r\n" then
            String.sub raw (i + 4) (String.length raw - i - 4)
          else find (i + 1)
        in
        find 0
      in
      (status, body))

let with_server ?(domains = 1) ?(cfg = Server.default_config) f =
  let cfg = { cfg with Server.port = 0; domains } in
  let srv = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      ignore (Domain.join d))
    (fun () -> f srv (Server.port srv))

(* The CLI's exchange --json path, computed in-process: the same
   discovery, witness, engine, and Render calls `mapdisc exchange
   --scenario NAME --size N --json` makes. Byte-equality against the
   served body is the CLI/server parity contract. *)
let cli_exchange_bytes (scen : Scenario.t) ~size ~seed =
  let source = scen.Scenario.source.Discover.schema
  and target = scen.Scenario.target.Discover.schema in
  let mappings = Registry.scenario_tgds scen in
  let n_tables = max 1 (List.length source.Smg_relational.Schema.tables) in
  let rows = max 1 (size / n_tables) in
  let inst = Smg_eval.Witness.populate ~rows_per_table:rows ~seed source in
  let head =
    [
      ("scenario", Render.json_str scen.Scenario.scen_name);
      ("size", string_of_int size);
      ("seed", string_of_int seed);
    ]
  in
  match Engine.run_bounded ~laconic:true ~source ~target ~mappings inst with
  | Engine.Complete rep -> Render.exchange_json ~head ~laconic:true rep
  | _ -> Alcotest.failf "reference exchange failed for %s" scen.Scenario.scen_name

let test_served_exchange_parity_all_domains () =
  (* every built-in domain: served body == CLI bytes, cold and warm *)
  with_server @@ fun _srv port ->
  List.iter
    (fun (scen : Scenario.t) ->
      let name = String.lowercase_ascii scen.Scenario.scen_name in
      let path = Printf.sprintf "/scenarios/%s/exchange?size=64" name in
      let expected = cli_exchange_bytes scen ~size:64 ~seed:42 in
      let status_cold, cold = http_request ~port "POST" path "" in
      let status_warm, warm = http_request ~port "POST" path "" in
      Alcotest.(check int) (name ^ " cold status") 200 status_cold;
      Alcotest.(check int) (name ^ " warm status") 200 status_warm;
      Alcotest.(check string) (name ^ " cold parity") expected cold;
      Alcotest.(check string) (name ^ " warm parity") expected warm)
    (Smg_eval.Datasets.all ())

let test_served_discover_parity () =
  (* a PUT scenario's discover body == the CLI's --json bytes for the
     same file content (the file field carries the PUT name) *)
  with_server @@ fun _srv port ->
  let text = Lazy.force books_src in
  let name = "scenarios/books.smg" in
  let status, _ = http_request ~port "PUT" "/scenarios/scenarios%2Fbooks.smg" text in
  Alcotest.(check int) "put created" 201 status;
  let doc = Smg_dsl.Parser.parse text in
  let source, target = Result.get_ok (Registry.sides_of_doc doc) in
  let expected =
    (Render.discover_json ~file:name ~source ~target
       ~corrs:doc.Smg_dsl.Ast.doc_corrs ())
      .Render.dj_json
  in
  let s1, cold = http_request ~port "POST" "/scenarios/scenarios%2Fbooks.smg/discover" "" in
  let s2, warm = http_request ~port "POST" "/scenarios/scenarios%2Fbooks.smg/discover" "" in
  Alcotest.(check int) "cold 200" 200 s1;
  Alcotest.(check int) "warm 200" 200 s2;
  Alcotest.(check string) "cold parity" expected cold;
  Alcotest.(check string) "warm parity" expected warm

let test_served_budget_exhaustion () =
  with_server @@ fun _srv port ->
  let status, body =
    http_request ~port "POST" "/scenarios/dblp/exchange?size=64&fuel=10" ""
  in
  Alcotest.(check int) "503 partial prefix" 503 status;
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length body
      && (String.sub body i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "incomplete" true (contains "\"complete\": false");
  Alcotest.(check bool) "diagnostic attached" true (contains "budget exhausted")

let test_served_errors () =
  with_server @@ fun _srv port ->
  let status, _ = http_request ~port "POST" "/scenarios/nosuch/exchange" "" in
  Alcotest.(check int) "unknown scenario" 404 status;
  let status, _ = http_request ~port "GET" "/nosuch" "" in
  Alcotest.(check int) "unknown route" 404 status;
  let status, _ = http_request ~port "POST" "/scenarios" "" in
  Alcotest.(check int) "bad method" 405 status;
  let status, _ =
    http_request ~port "POST" "/scenarios/dblp/exchange?size=banana" ""
  in
  Alcotest.(check int) "bad query int" 400 status;
  let status, _ = http_request ~port "PUT" "/scenarios/junk" "schema {" in
  Alcotest.(check int) "unparsable PUT" 400 status

let test_admission_control () =
  (* hold one connection open without sending anything; with
     max_inflight 1 the next connection must be answered 429 *)
  let cfg =
    {
      Server.default_config with
      Server.port = 0;
      domains = 2;
      max_inflight = 1;
    }
  in
  let srv = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      ignore (Domain.join d))
    (fun () ->
      let port = Server.port srv in
      let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close holder with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect holder (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* wait until the server has actually admitted the held
             connection *)
          let gauge = Metrics.inflight (Server.metrics srv) in
          let deadline = Smg_robust.Clock.now () +. 5.0 in
          while Atomic.get gauge < 1 && Smg_robust.Clock.now () < deadline do
            Unix.sleepf 0.01
          done;
          Alcotest.(check int) "one connection admitted" 1 (Atomic.get gauge);
          (* the server answers 429 on accept without reading, then
             closes; send nothing so its close cannot RST away the
             response before we read it *)
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let buf = Buffer.create 256 and chunk = Bytes.create 256 in
              let rec drain () =
                match Unix.read fd chunk 0 256 with
                | 0 -> ()
                | k ->
                    Buffer.add_subbytes buf chunk 0 k;
                    drain ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
              in
              drain ();
              let raw = Buffer.contents buf in
              let status =
                if String.length raw >= 12 then
                  int_of_string (String.sub raw 9 3)
                else -1
              in
              Alcotest.(check int) "second connection rejected" 429 status)))

let test_concurrent_load_and_metrics () =
  (* hammer one warmed scenario from several client domains at
     --domains 4; every response is 200 and the request counter adds up
     exactly — concurrent handlers never corrupt the metrics *)
  with_server ~domains:4 @@ fun srv port ->
  let path = "/scenarios/dblp/exchange?size=64" in
  let s0, reference = http_request ~port "POST" path "" in
  Alcotest.(check int) "warmup" 200 s0;
  let clients = 4 and per_client = 8 in
  let workers =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref 0 in
            for _ = 1 to per_client do
              let status, body = http_request ~port "POST" path "" in
              if status = 200 && String.equal body reference then incr ok
            done;
            !ok))
  in
  let ok = List.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
  Alcotest.(check int) "all responses 200 and byte-identical"
    (clients * per_client) ok;
  let json = Metrics.to_json (Server.metrics srv) ~scenarios:7 in
  let key = "\"exchange\": {\"requests\": " in
  let recorded =
    let rec find i =
      if i + String.length key > String.length json then -1
      else if String.sub json i (String.length key) = key then begin
        let j = ref (i + String.length key) in
        let k = ref !j in
        while
          !k < String.length json && json.[!k] >= '0' && json.[!k] <= '9'
        do
          incr k
        done;
        int_of_string (String.sub json !j (!k - !j))
      end
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check int) "metrics counted every request"
    (1 + (clients * per_client))
    recorded

(* ---- robustness: journal, faults, breaker, chaos ------------------------ *)

module Journal = Smg_serve.Journal
module Chaos = Smg_serve.Chaos
module Fault = Smg_robust.Fault
module Breaker = Smg_robust.Breaker

let contains_sub s needle =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* like http_request, but keeps the raw response so headers are
   checkable *)
let http_request_raw ~port meth path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let n = String.length req in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring fd req !off (n - !off)
      done;
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf)

(* A request's recorded latency starts once it has arrived: a
   keep-alive client idling between two requests must not have its idle
   gap booked against the second one. *)
let test_keepalive_idle_not_timed () =
  let cfg = { Server.default_config with Server.preload = false } in
  let find_from s i needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = needle then Some (i + n)
      else go (i + 1)
    in
    go i
  in
  (* the number right after [key], searched from [i] *)
  let number_after s i key =
    match find_from s i key with
    | None -> None
    | Some j ->
        let k = ref j in
        while
          !k < String.length s && (s.[!k] = '.' || (s.[!k] >= '0' && s.[!k] <= '9'))
        do
          incr k
        done;
        float_of_string_opt (String.sub s j (!k - j))
  in
  with_server ~cfg @@ fun srv port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
      let chunk = Bytes.create 4096 in
      (* one response: headers, then Content-Length bytes of body *)
      let complete raw =
        match find_from raw 0 "\r\n\r\n" with
        | None -> false
        | Some body ->
            let len = number_after raw 0 "Content-Length: " in
            String.length raw
            >= body + int_of_float (Option.value ~default:0. len)
      in
      let exchange () =
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 512 in
        while not (complete (Buffer.contents buf)) do
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Alcotest.fail "server closed a keep-alive connection"
          | k -> Buffer.add_subbytes buf chunk 0 k
        done;
        Alcotest.(check bool) "200" true
          (contains_sub (Buffer.contents buf) "HTTP/1.1 200")
      in
      exchange ();
      Unix.sleepf 0.3;
      exchange ());
  let json = Metrics.to_json (Server.metrics srv) ~scenarios:0 in
  let p95 =
    match find_from json 0 "\"healthz\": {" with
    | None -> Alcotest.fail "no healthz entry in /metrics"
    | Some i -> (
        match number_after json i "\"p95_ms\": " with
        | Some ms -> ms
        | None -> Alcotest.fail "no healthz p95")
  in
  if p95 >= 100. then
    Alcotest.failf "slowest healthz recorded at %.3f ms: the idle gap was timed"
      p95

let tmp_journal () = Filename.temp_file "smg_test_journal" ".j"

let test_journal_roundtrip () =
  let path = tmp_journal () in
  let ops =
    [
      Journal.Put { name = "a"; text = "schema s {}" };
      Journal.Delete "a";
      Journal.Put { name = "weird/name\n"; text = String.make 5000 'z' };
    ]
  in
  let j = Journal.open_append path in
  List.iter (Journal.append j) ops;
  Journal.close j;
  let got, clean = Journal.replay path in
  Alcotest.(check bool) "ops replay in order" true (got = ops);
  Alcotest.(check int) "clean prefix is the whole file" clean
    (Unix.stat path).Unix.st_size;
  Sys.remove path

let test_journal_corrupt_record_drops_tail () =
  let path = tmp_journal () in
  let ops =
    [
      Journal.Put { name = "one"; text = "alpha" };
      Journal.Put { name = "two"; text = "beta" };
      Journal.Put { name = "three"; text = "gamma" };
    ]
  in
  let r1 = Journal.encode (List.nth ops 0) in
  let full = String.concat "" (List.map Journal.encode ops) in
  (* flip a byte inside the second record's payload *)
  let bytes = Bytes.of_string full in
  let pos = String.length r1 + 10 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  let got, clean = Journal.replay path in
  Alcotest.(check bool) "only the intact prefix survives" true
    (got = [ List.nth ops 0 ]);
  Alcotest.(check int) "clean offset ends before the damage"
    (String.length r1) clean;
  (* open_append truncates the garbage and appends cleanly after it *)
  let j = Journal.open_append path in
  Journal.append j (Journal.Delete "one");
  Journal.close j;
  let got2, _ = Journal.replay path in
  Alcotest.(check bool) "append after truncation" true
    (got2 = [ List.nth ops 0; Journal.Delete "one" ]);
  Sys.remove path

let prop_journal_torn_tail =
  (* crash-window exhaustion: truncating the journal at EVERY byte
     offset recovers exactly the records wholly before the cut *)
  QCheck.Test.make ~name:"journal: every truncation yields the committed prefix"
    ~count:15
    QCheck.(
      small_list
        (pair
           (string_gen_of_size (Gen.int_range 1 8) Gen.printable)
           (string_gen_of_size (Gen.int_range 0 24) Gen.printable)))
    (fun pairs ->
      let ops =
        List.map
          (fun (name, text) ->
            if String.length text mod 3 = 0 then Journal.Delete name
            else Journal.Put { name; text })
          pairs
      in
      let encoded = List.map Journal.encode ops in
      let full = String.concat "" encoded in
      let sizes = List.map String.length encoded in
      let path = tmp_journal () in
      let ok = ref true in
      for cut = 0 to String.length full do
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 cut);
        close_out oc;
        let got, clean = Journal.replay path in
        let rec committed k off = function
          | sz :: rest when off + sz <= cut -> committed (k + 1) (off + sz) rest
          | _ -> (k, off)
        in
        let k, off = committed 0 0 sizes in
        let expect = List.filteri (fun i _ -> i < k) ops in
        if got <> expect || clean <> off then ok := false
      done;
      Sys.remove path;
      !ok)

let test_journal_recovery_byte_identity () =
  (* a journaled server is stopped; its successor must recover every
     scenario and serve warm bytes identical to the original's *)
  let path = tmp_journal () in
  Sys.remove path;
  let cfg =
    { Server.default_config with Server.preload = false; journal = Some path }
  in
  let text = Lazy.force books_src in
  let before =
    with_server ~cfg @@ fun _srv port ->
    let status, _ = http_request ~port "PUT" "/scenarios/books" text in
    Alcotest.(check int) "put journaled" 201 status;
    let s1, _ = http_request ~port "PUT" "/scenarios/doomed" text in
    Alcotest.(check int) "second put" 201 s1;
    let s2, _ = http_request ~port "DELETE" "/scenarios/doomed" "" in
    Alcotest.(check int) "delete journaled" 200 s2;
    let s3, body = http_request ~port "POST" "/scenarios/books/discover" "" in
    Alcotest.(check int) "discover before" 200 s3;
    body
  in
  with_server ~cfg @@ fun srv port ->
  let met = Server.metrics srv in
  Alcotest.(check int) "one scenario recovered (delete replayed)" 1
    (Metrics.recovered_count met);
  Alcotest.(check bool) "recovery latency recorded" true
    (Metrics.recovery_ms met > 0.);
  let s, names = http_request ~port "GET" "/scenarios" "" in
  Alcotest.(check int) "list after restart" 200 s;
  Alcotest.(check bool) "books recovered" true (contains_sub names "books");
  Alcotest.(check bool) "doomed stayed deleted" false
    (contains_sub names "doomed");
  let s4, after = http_request ~port "POST" "/scenarios/books/discover" "" in
  Alcotest.(check int) "discover after" 200 s4;
  Alcotest.(check string) "byte-identical across the restart" before after;
  Sys.remove path

let test_journal_delta_roundtrip () =
  (* the Delta op frames like the others, interleaves with them, and
     [position] tracks the committed byte offset through appends *)
  let path = tmp_journal () in
  let ops =
    [
      Journal.Put { name = "s"; text = "schema s {}" };
      Journal.Delta { name = "s"; text = "# key 64 42\n+ person(\"hopper\")\n" };
      Journal.Delta { name = "s"; text = "- soldAt(\"taocp\", \"strand\")\n" };
      Journal.Delete "s";
    ]
  in
  let j = Journal.open_append path in
  List.iter (Journal.append j) ops;
  let pos = Journal.position j in
  Journal.close j;
  Alcotest.(check int) "position is the file size" pos
    (Unix.stat path).Unix.st_size;
  let got, clean = Journal.replay path in
  Alcotest.(check bool) "delta ops replay in order" true (got = ops);
  Alcotest.(check int) "clean prefix is the whole file" clean pos;
  Sys.remove path

(* one batch against the books scenario: a new author picks up an
   existing book, and one listing goes away *)
let books_batch =
  "# grow the bookstore graph\n\
   + person(\"hopper\")\n\
   + writes(\"hopper\", \"taocp\")\n\
   - soldAt(\"discipline\", \"powell\")\n"

let test_served_delta_endpoint () =
  with_server @@ fun _srv port ->
  let s0, _ = http_request ~port "PUT" "/scenarios/books" (Lazy.force books_src) in
  Alcotest.(check int) "put" 201 s0;
  let s1, body = http_request ~port "POST" "/scenarios/books/delta" books_batch in
  Alcotest.(check int) "delta applied" 200 s1;
  Alcotest.(check bool) "counters in the head" true
    (contains_sub body "\"src_inserted\": 2, \"src_deleted\": 1");
  Alcotest.(check bool) "batch sequence" true (contains_sub body "\"batch\": 1");
  Alcotest.(check bool) "new author reached the target" true
    (contains_sub body "hopper");
  (* an empty batch is a consistent read of the maintained document *)
  let s2, read = http_request ~port "POST" "/scenarios/books/delta" "" in
  Alcotest.(check int) "empty batch reads" 200 s2;
  Alcotest.(check bool) "read sees the maintained data" true
    (contains_sub read "hopper");
  let s3, bad =
    http_request ~port "POST" "/scenarios/books/delta" "+ nosuch(\"x\")\n"
  in
  Alcotest.(check int) "unknown table rejected" 400 s3;
  Alcotest.(check bool) "diagnostic names the table" true
    (contains_sub bad "nosuch")

(* The counters head carries the batch's wall-clock, the one
   legitimately non-deterministic byte span in a maintained document —
   blank it so the rest can be compared exactly. *)
let scrub_seconds body =
  match String.index_opt body 's' with
  | None -> body
  | Some _ ->
      let needle = "\"seconds\": " in
      let nl = String.length needle in
      let b = Buffer.create (String.length body) in
      let i = ref 0 in
      let n = String.length body in
      while !i < n do
        if !i + nl <= n && String.sub body !i nl = needle then begin
          Buffer.add_string b needle;
          Buffer.add_char b '_';
          i := !i + nl;
          while !i < n && body.[!i] <> '}' do incr i done
        end
        else begin
          Buffer.add_char b body.[!i];
          incr i
        end
      done;
      Buffer.contents b

let test_delta_journal_recovery_byte_identity () =
  (* a journaled delta must survive kill/restart: the successor replays
     the PUT and the delta and serves the maintained document with the
     same bytes *)
  let path = tmp_journal () in
  Sys.remove path;
  let cfg =
    { Server.default_config with Server.preload = false; journal = Some path }
  in
  let before =
    with_server ~cfg @@ fun _srv port ->
    let s0, _ =
      http_request ~port "PUT" "/scenarios/books" (Lazy.force books_src)
    in
    Alcotest.(check int) "put journaled" 201 s0;
    let s1, _ = http_request ~port "POST" "/scenarios/books/delta" books_batch in
    Alcotest.(check int) "delta journaled" 200 s1;
    let s2, read = http_request ~port "POST" "/scenarios/books/delta" "" in
    Alcotest.(check int) "read before" 200 s2;
    read
  in
  with_server ~cfg @@ fun _srv port ->
  let s3, after = http_request ~port "POST" "/scenarios/books/delta" "" in
  Alcotest.(check int) "read after restart" 200 s3;
  Alcotest.(check bool) "maintained data recovered" true
    (contains_sub after "hopper");
  Alcotest.(check string) "byte-identical across the restart"
    (scrub_seconds before) (scrub_seconds after);
  Sys.remove path

let test_slowloris_408 () =
  (* a connection that sends half a request and goes idle must be
     answered 408 and closed at the deadline, not parked forever *)
  let cfg =
    {
      Server.default_config with
      Server.preload = false;
      idle_timeout_s = 0.3;
    }
  in
  with_server ~cfg @@ fun srv port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let partial = "GET /healthz HTT" in
      ignore (Unix.write_substring fd partial 0 (String.length partial));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let buf = Buffer.create 256 and chunk = Bytes.create 256 in
      let rec drain () =
        match Unix.read fd chunk 0 256 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      let raw = Buffer.contents buf in
      Alcotest.(check bool) "408 answered" true
        (contains_sub raw "HTTP/1.1 408");
      Alcotest.(check bool) "reason in body" true
        (contains_sub raw "idle past the read deadline"));
  Alcotest.(check int) "timeout counted" 1
    (Metrics.timeout_count (Server.metrics srv))

let test_supervised_parse_fault () =
  (* a certain parse fault becomes a diagnosed 500 on that request;
     the server keeps answering afterwards *)
  let fault =
    Fault.create ~seed:3
      [ (Fault.Parse, { Fault.quiet with Fault.p_raise = 1.0 }) ]
  in
  let cfg =
    { Server.default_config with Server.preload = false; fault = Some fault }
  in
  with_server ~cfg @@ fun srv port ->
  let status, body =
    http_request ~port "PUT" "/scenarios/x" (Lazy.force books_src)
  in
  Alcotest.(check int) "supervised 500" 500 status;
  Alcotest.(check bool) "diagnostic attached" true
    (contains_sub body "\"diagnostics\"");
  Alcotest.(check bool) "names the injection" true
    (contains_sub body "parse");
  let s2, _ = http_request ~port "GET" "/healthz" "" in
  Alcotest.(check int) "server alive after the fault" 200 s2;
  Alcotest.(check bool) "supervision counted" true
    (Metrics.supervised_count (Server.metrics srv) >= 1)

let test_breaker_sheds_with_retry_after () =
  (* every engine step raises: two 500s trip the scenario's breaker,
     the third request sheds 503 with Retry-After without touching the
     engine *)
  let fault =
    Fault.create ~seed:5
      [ (Fault.Engine_step, { Fault.quiet with Fault.p_raise = 1.0 }) ]
  in
  let cfg =
    {
      Server.default_config with
      Server.fault = Some fault;
      breaker = { Breaker.threshold = 2; cooldown_s = 60. };
    }
  in
  with_server ~cfg @@ fun srv port ->
  let p = "/scenarios/dblp/exchange?size=24" in
  let s1, _ = http_request ~port "POST" p "" in
  let s2, _ = http_request ~port "POST" p "" in
  Alcotest.(check (list int)) "two supervised 500s" [ 500; 500 ] [ s1; s2 ];
  let raw = http_request_raw ~port "POST" p "" in
  Alcotest.(check bool) "third sheds 503" true
    (contains_sub raw "HTTP/1.1 503");
  Alcotest.(check bool) "retry-after header" true
    (contains_sub raw "Retry-After:");
  Alcotest.(check bool) "circuit named" true (contains_sub raw "circuit open");
  let met = Server.metrics srv in
  Alcotest.(check bool) "trip counted" true (Metrics.breaker_trips met >= 1);
  Alcotest.(check bool) "shed counted" true
    (Metrics.breaker_shed_count met >= 1);
  (* an unrelated scenario's breaker is untouched: its requests still
     reach the (failing) engine rather than shedding *)
  let s4, _ = http_request ~port "POST" "/scenarios/mondial/exchange?size=24" "" in
  Alcotest.(check int) "other scenario not shed" 500 s4

let chaos_deterministic_report ~seed ~domains =
  let cfg =
    {
      (Chaos.config ~seed ~requests:40 ~domains ()) with
      Chaos.c_plan = Chaos.no_delay_plan;
      c_breaker = { Breaker.threshold = 3; cooldown_s = 0. };
    }
  in
  Chaos.run cfg

let prop_chaos_deterministic =
  (* the tentpole determinism property: the same fault seed yields a
     byte-identical failure schedule and outcome classification whether
     the server runs 1 domain or 4 — and the survival contract holds *)
  QCheck.Test.make ~name:"chaos: seed replays identically at 1 and 4 domains"
    ~count:2
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let a = chaos_deterministic_report ~seed ~domains:1 in
      let b = chaos_deterministic_report ~seed ~domains:4 in
      Chaos.ok a && Chaos.ok b
      && String.equal a.Chaos.r_schedule_digest b.Chaos.r_schedule_digest
      && String.equal a.Chaos.r_outcome_digest b.Chaos.r_outcome_digest)

let test_chaos_journaled_run () =
  (* a small end-to-end chaos run with the kill-and-recover phase *)
  let journal = tmp_journal () in
  let cfg = Chaos.config ~journal ~seed:11 ~requests:60 ~domains:2 () in
  let r = Chaos.run cfg in
  (try Sys.remove journal with Sys_error _ -> ());
  Alcotest.(check int) "no hangs" 0 r.Chaos.r_hangs;
  Alcotest.(check int) "no crashes" 0 r.Chaos.r_crashes;
  Alcotest.(check int) "no corrupt bodies" 0 r.Chaos.r_corrupt;
  Alcotest.(check bool) "recovery byte-identical" true r.Chaos.r_recovery_ok;
  Alcotest.(check bool) "both scenarios recovered" true (r.Chaos.r_recovered >= 2);
  Alcotest.(check bool) "drains quiesced" true r.Chaos.r_drained;
  Alcotest.(check bool) "verdict" true (Chaos.ok r)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "serve-http",
      [
        Alcotest.test_case "parse GET" `Quick test_parse_get;
        Alcotest.test_case "percent decode" `Quick test_parse_percent_decode;
        Alcotest.test_case "body" `Quick test_parse_body;
        Alcotest.test_case "missing length = empty" `Quick
          test_parse_missing_length_means_empty;
        Alcotest.test_case "byte at a time" `Quick test_parse_byte_at_a_time;
        Alcotest.test_case "pipelined" `Quick test_parse_pipelined;
        Alcotest.test_case "keep-alive rules" `Quick test_keep_alive_rules;
        Alcotest.test_case "malformed lines" `Quick test_reject_malformed_line;
        Alcotest.test_case "unknown method" `Quick test_reject_unknown_method;
        Alcotest.test_case "bad escapes" `Quick test_reject_bad_escape;
        Alcotest.test_case "long line" `Quick test_reject_long_line;
        Alcotest.test_case "header bomb" `Quick test_reject_header_bomb;
        Alcotest.test_case "bad content-length" `Quick
          test_reject_bad_content_length;
        Alcotest.test_case "oversized body" `Quick test_reject_oversized_body;
        q prop_parser_never_raises;
        q prop_parser_roundtrip;
      ] );
    ( "serve-registry",
      [
        Alcotest.test_case "put hash dedup" `Quick test_registry_put_hash_dedup;
        Alcotest.test_case "put rejects garbage" `Quick
          test_registry_put_rejects_garbage;
        Alcotest.test_case "discover cache" `Quick test_registry_discover_cache;
        Alcotest.test_case "exchange cache + bytes" `Quick
          test_registry_exchange_cache_and_bytes;
      ] );
    ( "serve-server",
      [
        Alcotest.test_case "exchange parity, 7 domains, warm+cold" `Slow
          test_served_exchange_parity_all_domains;
        Alcotest.test_case "discover parity" `Quick test_served_discover_parity;
        Alcotest.test_case "budget exhaustion 503" `Quick
          test_served_budget_exhaustion;
        Alcotest.test_case "error statuses" `Quick test_served_errors;
        Alcotest.test_case "delta endpoint" `Quick test_served_delta_endpoint;
        Alcotest.test_case "admission control 429" `Quick test_admission_control;
        Alcotest.test_case "keep-alive idle gap not timed" `Quick
          test_keepalive_idle_not_timed;
        Alcotest.test_case "concurrent load, domains=4" `Slow
          test_concurrent_load_and_metrics;
      ] );
    ( "serve-journal",
      [
        Alcotest.test_case "append/replay roundtrip" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "corrupt record drops tail" `Quick
          test_journal_corrupt_record_drops_tail;
        q prop_journal_torn_tail;
        Alcotest.test_case "restart recovers byte-identical" `Quick
          test_journal_recovery_byte_identity;
        Alcotest.test_case "delta op roundtrip + position" `Quick
          test_journal_delta_roundtrip;
        Alcotest.test_case "delta restart recovers byte-identical" `Quick
          test_delta_journal_recovery_byte_identity;
      ] );
    ( "serve-robust",
      [
        Alcotest.test_case "slowloris answered 408" `Quick test_slowloris_408;
        Alcotest.test_case "parse fault supervised to 500" `Quick
          test_supervised_parse_fault;
        Alcotest.test_case "breaker sheds with retry-after" `Quick
          test_breaker_sheds_with_retry_after;
      ] );
    ( "serve-chaos",
      [
        q prop_chaos_deterministic;
        Alcotest.test_case "journaled chaos run survives" `Slow
          test_chaos_journaled_run;
      ] );
  ]
