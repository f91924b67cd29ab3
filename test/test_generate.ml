(* The scenario generator: determinism, structural invariants over
   thousands of generated scenarios (valid acyclic RICs after lowering,
   witness data satisfying keys and RICs, budgeted discovery that never
   crashes and is byte-identical across domain counts, DSL round-trips),
   plus the frozen mid-size fixture's full battery — discovery vs the
   RIC baseline, engine ≡hom naive chase, served byte-parity. *)

module Params = Smg_generate.Params
module Gen = Smg_generate.Gen
module Data = Smg_generate.Data
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Chase = Smg_cq.Chase
module Budget = Smg_robust.Budget
module Pool = Smg_parallel.Pool
module Engine = Smg_exchange.Engine
module Render = Smg_serve.Render
module Registry = Smg_serve.Registry
module Server = Smg_serve.Server

(* CI shrinks property volumes via SMG_FUZZ_COUNT; the defaults below
   sum to >1000 generated scenarios per full run. *)
let fuzz_count default =
  match Sys.getenv_opt "SMG_FUZZ_COUNT" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> min default n
      | _ -> default)
  | None -> default

(* ---- helpers ----------------------------------------------------------- *)

let rics_acyclic (schema : Schema.t) =
  let order = Data.topo_tables schema in
  let pos t =
    let rec go i = function
      | [] -> -1
      | x :: _ when String.equal x t -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  List.for_all
    (fun (r : Schema.ric) -> pos r.Schema.to_table < pos r.Schema.from_table)
    schema.Schema.rics

let instance_consistent (schema : Schema.t) inst =
  Instance.check_rics schema inst = [] && Instance.check_keys schema inst = []

let corr_well_formed (g : Gen.t) (c : Mapping.corr) =
  let has (schema : Schema.t) (t, col) =
    match Schema.find_table schema t with
    | Some tbl -> Schema.has_column tbl col
    | None -> false
  in
  has g.Gen.g_source.Discover.schema c.Mapping.c_src
  && has g.Gen.g_target.Discover.schema c.Mapping.c_tgt

(* ---- deterministic unit tests ------------------------------------------ *)

let test_deterministic () =
  let p = { Params.default with seed = 1234; scale = 60 } in
  let a = Gen.build p and b = Gen.build p in
  Alcotest.(check string)
    "same params, same DSL" (Gen.dsl ~with_data:true a)
    (Gen.dsl ~with_data:true b);
  Alcotest.(check bool)
    "same params, same data" true
    (Instance.equal (Gen.source_instance a) (Gen.source_instance b))

let test_scale_population () =
  (* a mid-size population stays linear-time and constraint-clean *)
  let g = Gen.build { Params.default with seed = 11; scale = 20_000 } in
  let inst = Gen.source_instance g in
  let total = Instance.total_tuples inst in
  Alcotest.(check bool)
    (Printf.sprintf "scale honored (%d tuples)" total)
    true (total >= 10_000);
  Alcotest.(check int) "no RIC violations" 0
    (List.length (Instance.check_rics g.Gen.g_source.Discover.schema inst));
  Alcotest.(check int) "no key violations" 0
    (List.length (Instance.check_keys g.Gen.g_source.Discover.schema inst))

let test_clamp () =
  let wild =
    {
      Params.seed = -3;
      isa_depth = 99;
      n_roots = 0;
      reify = -1;
      partof = 77;
      attrs_per_class = 0;
      corr_density = 7.0;
      scale = 1;
    }
  in
  let g = Gen.build wild in
  Alcotest.(check bool) "clamped vector builds" true (g.Gen.g_corrs <> [])

(* ---- frozen fixture ---------------------------------------------------- *)

(* scenarios/generated_mid.smg is minted by
   [mapdisc generate --seed 7 --isa-depth 2 --roots 3 --reify 2
    --partof 1 --attrs 2 --corr-density 0.8 --scale 5000 --emit-dsl];
   the test pins the generator to the checked-in bytes. *)
let fixture_params =
  {
    Params.seed = 7;
    isa_depth = 2;
    n_roots = 3;
    reify = 2;
    partof = 1;
    attrs_per_class = 2;
    corr_density = 0.8;
    scale = 5000;
  }

let fixture_path =
  if Sys.file_exists "scenarios/generated_mid.smg" then
    "scenarios/generated_mid.smg"
  else "../../../scenarios/generated_mid.smg"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_fixture_frozen () =
  let text = read_file fixture_path in
  Alcotest.(check string)
    "generator reproduces the checked-in fixture byte for byte" text
    (Gen.dsl (Gen.build fixture_params))

let fixture = lazy (Gen.build fixture_params)

let test_fixture_discover_vs_ric () =
  let g = Lazy.force fixture in
  let sem =
    Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
      ~corrs:g.Gen.g_corrs ()
  in
  let ric =
    Smg_ric.Baseline.generate ~source:g.Gen.g_source.Discover.schema
      ~target:g.Gen.g_target.Discover.schema ~corrs:g.Gen.g_corrs
  in
  Alcotest.(check bool) "semantic discovery finds candidates" true (sem <> []);
  Alcotest.(check bool) "RIC baseline finds candidates" true (ric <> []);
  (* the verification layer can compare the two candidate sets without
     tripping over the generated queries *)
  let report =
    Smg_verify.Mapverify.dedup ~source:g.Gen.g_source.Discover.schema
      ~target:g.Gen.g_target.Discover.schema (sem @ ric)
  in
  Alcotest.(check int)
    "dedup examined the union"
    (List.length sem + List.length ric)
    report.Smg_verify.Mapverify.rp_in

let fixture_tgds (g : Gen.t) =
  match
    Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
      ~corrs:g.Gen.g_corrs ()
  with
  | [] -> Alcotest.fail "no mapping discovered on the fixture"
  | best :: _ ->
      Mapping.outer_variants ~target:g.Gen.g_target.Discover.schema best

let test_fixture_engine_vs_chase () =
  let g = Lazy.force fixture in
  let source = g.Gen.g_source.Discover.schema
  and target = g.Gen.g_target.Discover.schema in
  let tgds = fixture_tgds g in
  let inst = Gen.source_instance ~scale:300 g in
  match
    ( Engine.run ~source ~target ~mappings:tgds inst,
      Chase.exchange ~source ~target ~mappings:tgds inst )
  with
  | Ok rep, Chase.Saturated naive ->
      Alcotest.(check bool)
        "engine ≡hom naive chase on generated data" true
        (Smg_verify.Equiv.equivalent rep.Engine.r_target naive)
  | Ok _, _ -> Alcotest.fail "naive chase did not saturate"
  | Error msg, _ -> Alcotest.failf "engine failed: %s" msg

(* minimal HTTP client against a local server, as in test_serve *)
let http_request ~port meth path body =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let _ = Unix.write_substring sock req 0 (String.length req) in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
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

let test_fixture_serve_parity () =
  let g = Lazy.force fixture in
  let text = Gen.dsl g in
  let name = "generated_mid" in
  let cfg = { Server.default_config with Server.port = 0; domains = 1 } in
  let srv = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      ignore (Domain.join d))
    (fun () ->
      let port = Server.port srv in
      let status, _ = http_request ~port "PUT" ("/scenarios/" ^ name) text in
      Alcotest.(check int) "put created" 201 status;
      let expected =
        (Render.discover_json ~file:name ~source:g.Gen.g_source
           ~target:g.Gen.g_target ~corrs:g.Gen.g_corrs ())
          .Render.dj_json
      in
      let s1, cold =
        http_request ~port "POST" ("/scenarios/" ^ name ^ "/discover") ""
      in
      let s2, warm =
        http_request ~port "POST" ("/scenarios/" ^ name ^ "/discover") ""
      in
      Alcotest.(check int) "cold 200" 200 s1;
      Alcotest.(check int) "warm 200" 200 s2;
      Alcotest.(check string) "cold parity" expected cold;
      Alcotest.(check string) "warm parity" expected warm)

(* ---- properties -------------------------------------------------------- *)

let gen_params =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* isa_depth = int_bound 2 in
    let* n_roots = int_range 1 4 in
    let* reify = int_bound 2 in
    let* partof = int_bound 2 in
    let* attrs_per_class = int_range 1 3 in
    let* dens = int_range 3 10 in
    let* scale = int_range 20 80 in
    return
      {
        Params.seed;
        isa_depth;
        n_roots;
        reify;
        partof;
        attrs_per_class;
        corr_density = float_of_int dens /. 10.;
        scale;
      })

let arb_params = QCheck.make gen_params ~print:(fun p -> Fmt.str "%a" Params.pp p)

let prop_lowering_and_data =
  QCheck.Test.make
    ~name:"generated scenarios lower to valid acyclic RICs with clean data"
    ~count:(fuzz_count 500) arb_params (fun p ->
      (* Gen.build itself runs Discover.side validation on both sides *)
      let g = Gen.build p in
      let src = g.Gen.g_source.Discover.schema
      and tgt = g.Gen.g_target.Discover.schema in
      rics_acyclic src && rics_acyclic tgt
      && g.Gen.g_corrs <> []
      && List.for_all (corr_well_formed g) g.Gen.g_corrs
      && instance_consistent src (Gen.source_instance g)
      && instance_consistent tgt (Gen.target_instance g))

let prop_dsl_roundtrip =
  QCheck.Test.make
    ~name:"emitted .smg text is a print→parse→print fixpoint"
    ~count:(fuzz_count 350) arb_params (fun p ->
      let g = Gen.build p in
      let with_data = p.Params.scale <= 40 in
      let text = Gen.dsl ~with_data g in
      match Smg_dsl.Parser.parse_result text with
      | Error d -> QCheck.Test.fail_reportf "parse: %a" Smg_robust.Diag.pp d
      | Ok doc ->
          String.equal text (Smg_dsl.Printer.to_string doc)
          && Result.is_ok (Registry.sides_of_doc doc))

let prop_discovery_budgeted =
  QCheck.Test.make
    ~name:"budgeted discovery never crashes; 4 domains ≡ 1 domain bytes"
    ~count:(fuzz_count 250) arb_params (fun p ->
      let g = Gen.build p in
      let run domains =
        Pool.with_pool ~domains (fun pool ->
            (Render.discover_json
               ~budget:(Budget.create ~fuel:150_000 ())
               ~pool ~file:"gen" ~source:g.Gen.g_source ~target:g.Gen.g_target
               ~corrs:g.Gen.g_corrs ())
              .Render.dj_json)
      in
      String.equal (run 1) (run 4))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "generate",
      [
        Alcotest.test_case "deterministic rebuild" `Quick test_deterministic;
        Alcotest.test_case "20k-tuple population is clean" `Quick
          test_scale_population;
        Alcotest.test_case "wild vectors clamp" `Quick test_clamp;
        Alcotest.test_case "fixture is frozen" `Quick test_fixture_frozen;
        Alcotest.test_case "fixture: discover vs RIC baseline" `Quick
          test_fixture_discover_vs_ric;
        Alcotest.test_case "fixture: engine ≡hom chase" `Quick
          test_fixture_engine_vs_chase;
        Alcotest.test_case "fixture: served byte-parity" `Quick
          test_fixture_serve_parity;
        q prop_lowering_and_data;
        q prop_dsl_roundtrip;
        q prop_discovery_budgeted;
      ] );
  ]
