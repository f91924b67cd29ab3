(* mapdisc — discover schema mappings for a scenario described in the
   smg DSL.

   A scenario file contains two schemas (first = source, second =
   target), two CMs (same order), one `semantics` block per table, and
   `corr` declarations. See README for the format.

   Subcommands:
     discover FILE   run mapping discovery (semantic, RIC-based, or both)
     verify FILE     containment/equivalence matrix + dedup report
     match FILE      propose correspondences with the name matcher
     show FILE       parse and pretty-print the scenario (round-trip)
     compose         compose a multi-hop pipeline into one mapping *)

open Cmdliner
module Ast = Smg_dsl.Ast
module Schema = Smg_relational.Schema
module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover
module Mapverify = Smg_verify.Mapverify
module Budget = Smg_robust.Budget
module Diag = Smg_robust.Diag
module Compose = Smg_compose.Compose
module Invert = Smg_compose.Invert
module Pipeline = Smg_compose.Pipeline

(* Exit codes: 0 success (possibly with degraded/approximate results),
   1 no result, 2 bad input (parse/validation), 3 budget exhausted with
   only partial results (or, under --strict, any degradation). *)

let parse_scenario file =
  match Smg_dsl.Parser.parse_file file with
  | doc -> doc
  | exception Smg_dsl.Parser.Error (msg, line, col) ->
      Fmt.epr "%s:%d:%d: %s@." file line col msg;
      exit 2
  | exception Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      exit 2
  | exception Invalid_argument msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2

let load file =
  let doc = parse_scenario file in
  (* the lowering itself lives in Smg_serve.Registry so the CLI and the
     HTTP service build identical sides from the same document *)
  match Smg_serve.Registry.sides_of_doc doc with
  | Ok (source, target) -> (doc, source, target)
  | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2

type meth = Semantic | Ric | Both

let label_by_rank ms =
  List.mapi
    (fun i (m : Mapping.t) ->
      Mapping.rename (Printf.sprintf "%s#%d" m.Mapping.m_name (i + 1)) m)
    ms

let make_budget budget_ms fuel =
  match (budget_ms, fuel) with
  | None, None -> None
  | deadline_ms, fuel -> Some (Budget.create ?deadline_ms ?fuel ())

(* --domains N: 1 means sequential (no pool is created at all); the
   default comes from Pool.default_domains (SMG_DOMAINS or the
   recommended domain count, capped at 8). *)
let with_domains domains f =
  let domains =
    match domains with
    | Some n -> max 1 n
    | None -> Smg_parallel.Pool.default_domains ()
  in
  if domains <= 1 then f None
  else Smg_parallel.Pool.with_pool ~domains (fun pool -> f (Some pool))

(* The JSON encodings live in Smg_serve.Render so the CLI's --json
   output and the HTTP service's response bodies are byte-identical. *)
module Render = Smg_serve.Render

let run_discover file meth verbose sql dedup budget_ms fuel strict diagnostics
    json domains =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let doc, source, target = load file in
  let corrs = doc.Ast.doc_corrs in
  if corrs = [] then begin
    Fmt.epr "error: the scenario declares no correspondences@.";
    exit 2
  end;
  with_domains domains @@ fun pool ->
  if json then begin
    (* machine-readable mirror of the human output, rendered by the
       module the HTTP service shares so the bytes match a served
       POST /scenarios/:name/discover response *)
    let budget = make_budget budget_ms fuel in
    let meth =
      match meth with Semantic -> `Semantic | Ric -> `Ric | Both -> `Both
    in
    let out =
      Render.discover_json ?budget ?pool ~meth ~dedup ~file ~source ~target
        ~corrs ()
    in
    print_string out.Render.dj_json;
    let code = ref 0 in
    if out.Render.dj_count = 0 then code := 1;
    if strict then begin
      if not out.Render.dj_exact then code := max !code 3;
      if Diag.has_errors out.Render.dj_diags then code := max !code 2
    end;
    exit !code
  end;
  let maybe_dedup title ms =
    if not dedup then ms
    else begin
      let report =
        Mapverify.dedup ?pool ~source:source.Discover.schema
          ~target:target.Discover.schema (label_by_rank ms)
      in
      Fmt.pr "[%s] %s@." title (Mapverify.summary report);
      report.Mapverify.rp_kept
    end
  in
  let print_all title ms =
    let ms = maybe_dedup title ms in
    Fmt.pr "== %s: %d candidate(s) ==@." title (List.length ms);
    List.iteri
      (fun i m ->
        Fmt.pr "@.#%d %a@." (i + 1) Mapping.pp m;
        Fmt.pr "   tgd: %a@." Smg_cq.Dependency.pp_tgd (Mapping.to_tgd m);
        Fmt.pr "   source algebra: %a@."
          Smg_relational.Algebra.pp
          (Mapping.src_algebra source.Discover.schema m);
        if sql then begin
          Fmt.pr "   source SQL:@.%s@."
            (Smg_cq.Sql.select_of_query source.Discover.schema
               m.Mapping.src_query);
          List.iter (Fmt.pr "   exchange SQL:@.%s@.")
            (Smg_cq.Sql.insert_of_mapping ~source:source.Discover.schema
               ~target:target.Discover.schema m)
        end)
      ms
  in
  let code = ref 0 in
  let bump c = if c > !code then code := c in
  (match meth with
  | Semantic | Both ->
      let pre = Discover.lint ~source ~target ~corrs in
      let budget = make_budget budget_ms fuel in
      let o = Discover.discover_bounded ?budget ?pool ~source ~target ~corrs () in
      let diags = pre @ o.Discover.o_diags in
      if diagnostics && diags <> [] then
        Fmt.pr "== diagnostics ==@.%a@.%s@.@." Diag.pp_list diags
          (Diag.summary diags);
      let n_approx =
        List.length (List.filter Mapping.is_approximate o.Discover.o_mappings)
      in
      if n_approx > 0 then
        Fmt.pr
          "note: %d of %d candidate(s) are approximate (budget-degraded \
           search)@."
          n_approx
          (List.length o.Discover.o_mappings);
      print_all "semantic" o.Discover.o_mappings;
      if o.Discover.o_mappings = [] then bump 1;
      if strict then begin
        if not o.Discover.o_exact then bump 3;
        if Diag.has_errors diags then bump 2
      end
  | Ric -> ());
  (match meth with
  | Ric | Both ->
      print_all "RIC-based (Clio-style)"
        (Smg_ric.Baseline.generate ~source:source.Discover.schema
           ~target:target.Discover.schema ~corrs)
  | Semantic -> ());
  if !code <> 0 then exit !code

(* verify: pairwise logical comparison of the candidates both methods
   produce, then a dedup report over the combined ranked list (semantic
   first, so a RIC candidate equivalent to a semantic one is absorbed by
   the semantic representative). *)
let run_verify file limit =
  let doc, source, target = load file in
  let corrs = doc.Ast.doc_corrs in
  if corrs = [] then begin
    Fmt.epr "error: the scenario declares no correspondences@.";
    exit 2
  end;
  let s_schema = source.Discover.schema and t_schema = target.Discover.schema in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let label tag ms =
    List.mapi
      (fun i m -> Mapping.rename (Printf.sprintf "%s%d" tag (i + 1)) m)
      ms
  in
  let sem_all = Discover.discover ~source ~target ~corrs () in
  let ric_all = Smg_ric.Baseline.generate ~source:s_schema ~target:t_schema ~corrs in
  let truncated name all =
    if List.length all > limit then
      Fmt.pr "note: comparing the %d best of %d %s candidate(s)@." limit
        (List.length all) name
  in
  truncated "semantic" sem_all;
  truncated "RIC-based" ric_all;
  let sem = label "S" (take limit sem_all)
  and ric = label "R" (take limit ric_all) in
  let all = Array.of_list (sem @ ric) in
  let n = Array.length all in
  if n = 0 then begin
    Fmt.epr "error: neither method produced a candidate@.";
    exit 1
  end;
  Array.iter
    (fun (m : Mapping.t) ->
      Fmt.pr "%-4s %a@." m.Mapping.m_name Smg_cq.Dependency.pp_tgd
        (Mapping.to_tgd m))
    all;
  (* one implication test per ordered pair; the matrix reads row → column *)
  let imp =
    Array.init n (fun i ->
        Array.init n (fun j ->
            i = j
            || Mapverify.implies ~source:s_schema ~target:t_schema all.(i)
                 all.(j)))
  in
  Fmt.pr "@.containment matrix (cell: row = / > / < / . column):@.";
  Fmt.pr "     %s@."
    (String.concat " "
       (Array.to_list
          (Array.map (fun (m : Mapping.t) -> Printf.sprintf "%3s" m.Mapping.m_name) all)));
  Array.iteri
    (fun i (mi : Mapping.t) ->
      let cells =
        Array.to_list
          (Array.init n (fun j ->
               let s =
                 match (imp.(i).(j), imp.(j).(i)) with
                 | true, true -> "="
                 | true, false -> ">"
                 | false, true -> "<"
                 | false, false -> "."
               in
               Printf.sprintf "%3s" s))
      in
      Fmt.pr "%-4s %s@." mi.Mapping.m_name (String.concat " " cells))
    all;
  let report =
    Mapverify.dedup ~source:s_schema ~target:t_schema (Array.to_list all)
  in
  Fmt.pr "@.%a@." Mapverify.pp_report report;
  (* cross-method redundancy, straight off the implication matrix *)
  let n_sem = List.length sem in
  let ric_equiv = ref 0 and ric_subsumed = ref 0 in
  List.iteri
    (fun k _ ->
      let i = n_sem + k in
      let equiv = ref false and subs = ref false in
      for j = 0 to n_sem - 1 do
        if imp.(i).(j) && imp.(j).(i) then equiv := true
        else if imp.(j).(i) then subs := true
      done;
      if !equiv then incr ric_equiv else if !subs then incr ric_subsumed)
    ric;
  Fmt.pr
    "RIC redundancy: %d of %d RIC candidate(s) logically equivalent to a \
     semantic candidate, %d more subsumed by one@."
    !ric_equiv (List.length ric) !ric_subsumed

let run_match file threshold =
  let doc, source, target = load file in
  ignore doc;
  let proposals =
    Smg_matching.Matcher.propose ~threshold ~source:source.Discover.schema
      ~target:target.Discover.schema ()
  in
  List.iter
    (fun (r : Smg_matching.Matcher.match_result) ->
      Fmt.pr "%.2f  %a@." r.confidence Mapping.pp_corr r.corr)
    proposals

let run_show file =
  let doc = Smg_dsl.Parser.parse_file file in
  Fmt.pr "%a@." Smg_dsl.Printer.pp doc

(* exchange: execute mappings over a source instance — either a DSL
   scenario file with data blocks, or a built-in evaluation domain
   (--scenario) over a generated source of roughly --size tuples. *)

let exchange_file_inputs ~quiet file size seed =
  let doc, source, target = load file in
  let corrs = doc.Ast.doc_corrs in
  if corrs = [] then begin
    Fmt.epr "error: the scenario declares no correspondences@.";
    exit 2
  end;
  (* a file without data blocks runs over a seeded witness instance —
     the same fallback (and head fields) the HTTP service uses, so the
     --json bytes still match a served exchange response *)
  let from_data = Ast.instance_of doc source.Discover.schema in
  let src_inst, head =
    if Smg_relational.Instance.total_tuples from_data > 0 then
      (from_data, [ ("file", Render.json_str file) ])
    else begin
      let schema = source.Discover.schema in
      let n_tables = max 1 (List.length schema.Schema.tables) in
      let rows = max 1 (size / n_tables) in
      if not quiet then
        Fmt.pr
          "no data blocks; generating a witness source (%d rows/table, seed \
           %d)@."
          rows seed;
      ( Smg_eval.Witness.populate_cached ~rows_per_table:rows ~seed schema,
        [
          ("file", Render.json_str file);
          ("size", string_of_int size);
          ("seed", string_of_int seed);
        ] )
    end
  in
  (match Smg_relational.Instance.check_rics source.Discover.schema src_inst with
  | [] -> ()
  | violations ->
      Fmt.epr "error: source data violates %d referential constraint(s)@."
        (List.length violations);
      exit 2);
  match Discover.discover ~source ~target ~corrs () with
  | [] ->
      Fmt.epr "error: no mapping discovered@.";
      exit 1
  | best :: _ ->
      if not quiet then Fmt.pr "Executing: %a@.@." Mapping.pp best;
      ( source.Discover.schema,
        target.Discover.schema,
        Mapping.outer_variants ~target:target.Discover.schema best,
        src_inst,
        head,
        file )

let exchange_scenario_inputs ~quiet name size seed =
  let scens = Smg_eval.Datasets.all () in
  let lname = String.lowercase_ascii name in
  let scen =
    match
      List.find_opt
        (fun (s : Smg_eval.Scenario.t) ->
          String.lowercase_ascii s.Smg_eval.Scenario.scen_name = lname)
        scens
    with
    | Some s -> s
    | None ->
        Fmt.epr "error: unknown scenario %s (available: %s)@." name
          (String.concat ", "
             (List.map
                (fun (s : Smg_eval.Scenario.t) -> s.Smg_eval.Scenario.scen_name)
                scens));
        exit 2
  in
  let source = scen.Smg_eval.Scenario.source
  and target = scen.Smg_eval.Scenario.target in
  (* the best discovered mapping of every benchmark case, executed
     together — the engine's preparation dedups equivalent tgds; the
     construction is shared with the HTTP service's registry *)
  let mappings = Smg_serve.Registry.scenario_tgds scen in
  if mappings = [] then begin
    Fmt.epr "error: discovery produced no mapping for %s@."
      scen.Smg_eval.Scenario.scen_name;
    exit 1
  end;
  let schema = source.Discover.schema in
  let n_tables = max 1 (List.length schema.Schema.tables) in
  let rows = max 1 (size / n_tables) in
  let inst = Smg_eval.Witness.populate_cached ~rows_per_table:rows ~seed schema in
  if not quiet then
    Fmt.pr
      "scenario %s: %d tgd(s) from %d case(s); source: %d tuple(s) (%d \
       rows/table, seed %d)@.@."
      scen.Smg_eval.Scenario.scen_name (List.length mappings)
      (List.length scen.Smg_eval.Scenario.cases)
      (Smg_relational.Instance.total_tuples inst)
      rows seed;
  ( schema,
    target.Discover.schema,
    mappings,
    inst,
    [
      ("scenario", Render.json_str scen.Smg_eval.Scenario.scen_name);
      ("size", string_of_int size);
      ("seed", string_of_int seed);
    ],
    String.lowercase_ascii scen.Smg_eval.Scenario.scen_name )

let pp_cardinalities ppf inst =
  List.iter
    (fun name ->
      match Smg_relational.Instance.relation inst name with
      | None -> ()
      | Some r ->
          Fmt.pf ppf "  %-24s %d tuple(s)@." name
            (List.length r.Smg_relational.Instance.tuples))
    (Smg_relational.Instance.names inst)

(* --apply-delta: instead of one bulk execution, initialize the
   incremental maintenance state over the source, apply the batch, and
   print the maintained target — the same Smg_delta.Maintain path (and,
   under --json, the same document construction) as a served
   POST /scenarios/:name/delta. *)
let run_exchange_delta ~json ~print_data ~source ~target ~mappings ~src_inst
    ~head ?shards path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Smg_delta.Batch.parse ~schema:source text with
  | Error m ->
      Fmt.epr "error: %s: %s@." path m;
      exit 2
  | Ok batch -> (
      let fail m =
        Fmt.epr "error: exchange failed: %s@." m;
        exit 1
      in
      let prepared =
        Smg_delta.Maintain.prepare
          ~card:(fun n -> Smg_relational.Instance.cardinality src_inst n)
          ~source ~target ~mappings ()
      in
      match prepared with
      | Error m -> fail m
      | Ok compiled -> (
          match Smg_delta.Maintain.init ?shards compiled src_inst with
          | Error m -> fail m
          | Ok st -> (
              match Smg_delta.Maintain.apply st batch with
              | Error m -> fail m
              | Ok (st, c) ->
                  let head =
                    head
                    @ [
                        ( "batch",
                          string_of_int (Smg_delta.Maintain.batches st) );
                        ("delta", Smg_serve.Registry.counters_json c);
                      ]
                  in
                  let rep = Smg_delta.Maintain.report st in
                  if json then begin
                    print_string
                      (Render.exchange_json ~head ~laconic:false rep);
                    exit 0
                  end;
                  let ins, del = Smg_delta.Batch.counts batch in
                  Fmt.pr
                    "delta: %d insert(s), %d delete(s); fired %d trigger(s), \
                     added %d fact(s), retracted %d, collected %d null(s), \
                     checked %d keyed fact(s) (%.3f ms)@.@."
                    ins del c.Smg_delta.Maintain.mc_triggers_fired
                    c.Smg_delta.Maintain.mc_facts_added
                    c.Smg_delta.Maintain.mc_facts_retracted
                    c.Smg_delta.Maintain.mc_nulls_collected
                    c.Smg_delta.Maintain.mc_egd_checked
                    (1000. *. c.Smg_delta.Maintain.mc_seconds);
                  let out = rep.Smg_exchange.Engine.r_target in
                  if print_data then
                    Fmt.pr "Target instance:@.%a@."
                      Smg_relational.Instance.pp out
                  else begin
                    Fmt.pr "Target cardinalities:@.";
                    Fmt.pr "%a" pp_cardinalities out
                  end;
                  exit 0)))

let run_exchange file scenario size seed engine no_laconic core print_data
    budget_ms fuel json domains shards apply_delta =
  with_domains domains @@ fun pool ->
  let source, target, mappings, src_inst, head, subject =
    match (scenario, file) with
    | Some name, _ -> exchange_scenario_inputs ~quiet:json name size seed
    | None, Some file -> exchange_file_inputs ~quiet:json file size seed
    | None, None ->
        Fmt.epr "error: provide a scenario FILE or --scenario NAME@.";
        exit 2
  in
  (match apply_delta with
  | Some path ->
      if engine <> `Fast || core then begin
        Fmt.epr "error: --apply-delta supports the fast engine without                  --core@.";
        exit 2
      end;
      run_exchange_delta ~json ~print_data ~source ~target ~mappings ~src_inst
        ~head ?shards path
  | None -> ());
  (* a FILE's data blocks are small: print them in full by default; a
     generated witness source (head carries "size") is not *)
  let print_data =
    print_data || (scenario = None && not (List.mem_assoc "size" head))
  in
  if json then begin
    (* the bytes of this document match a served
       POST /scenarios/:name/exchange response: same Render module,
       canonical null numbering, no timings *)
    if engine <> `Fast || core then begin
      Fmt.epr "error: --json supports the fast engine without --core@.";
      exit 2
    end;
    let laconic = not no_laconic in
    match
      Smg_exchange.Engine.run_bounded
        ?budget:(make_budget budget_ms fuel)
        ?pool ?shards ~laconic ~source ~target ~mappings src_inst
    with
    | Smg_exchange.Engine.Failed msg ->
        Fmt.epr "error: exchange failed: %s@." msg;
        exit 1
    | Smg_exchange.Engine.Complete rep ->
        print_string (Render.exchange_json ~head ~laconic rep);
        exit 0
    | Smg_exchange.Engine.Budget_exhausted (reason, rep) ->
        let diag =
          Diag.degraded ~subject Diag.Exchange reason
            "target instance is a partial prefix"
        in
        print_string
          (Render.exchange_json ~head ~exhausted:reason ~diags:[ diag ]
             ~laconic rep);
        exit 3
  end;
  let partial = ref false in
  let out =
    match engine with
    | `Fast -> (
        match
          Smg_exchange.Engine.run_bounded
            ?budget:(make_budget budget_ms fuel)
            ?pool ?shards ~laconic:(not no_laconic) ~source ~target ~mappings
            src_inst
        with
        | Smg_exchange.Engine.Failed msg ->
            Fmt.epr "error: exchange failed: %s@." msg;
            exit 1
        | Smg_exchange.Engine.Budget_exhausted (reason, rep) ->
            partial := true;
            Fmt.pr "warning: %a budget exhausted; target is a partial prefix@."
              Budget.pp_reason reason;
            Fmt.pr "%a@.@." Smg_exchange.Engine.pp_report rep;
            rep.Smg_exchange.Engine.r_target
        | Smg_exchange.Engine.Complete rep ->
            Fmt.pr "%a@.@." Smg_exchange.Engine.pp_report rep;
            rep.Smg_exchange.Engine.r_target)
    | `Chase -> (
        let outcome, secs =
          Smg_robust.Clock.time (fun () ->
              Smg_cq.Chase.exchange ~source ~target ~mappings src_inst)
        in
        match outcome with
        | Smg_cq.Chase.Saturated out | Smg_cq.Chase.Bounded out ->
            Fmt.pr "naive chase: %.3f ms, target tuples: %d@.@."
              (1000. *. secs)
              (Smg_relational.Instance.total_tuples out);
            out
        | Smg_cq.Chase.Failed msg ->
            Fmt.epr "error: chase failed: %s@." msg;
            exit 1)
  in
  let out =
    if not core then out
    else begin
      let before = Smg_relational.Instance.total_tuples out in
      let cored, secs =
        Smg_robust.Clock.time (fun () -> Smg_verify.Icore.core out)
      in
      Fmt.pr "core: %d -> %d tuple(s) (%.3f ms)@.@." before
        (Smg_relational.Instance.total_tuples cored)
        (1000. *. secs);
      cored
    end
  in
  if print_data then
    Fmt.pr "Target instance:@.%a@." Smg_relational.Instance.pp out
  else begin
    Fmt.pr "Target cardinalities:@.";
    Fmt.pr "%a" pp_cardinalities out
  end;
  if !partial then exit 3

(* compose: chain scenario files into a pipeline A → B → … → Z, discover
   the best mapping per hop, and compose the chain into one A → Z
   mapping. --invert appends the quasi-inverse of the forward
   composition (reverse migration into a primed copy of the original
   source). --verify materializes the chain both ways and compares. *)

let load_hop file =
  let doc, source, target = load file in
  let corrs = doc.Ast.doc_corrs in
  if corrs = [] then begin
    Fmt.epr "%s: error: the scenario declares no correspondences@." file;
    exit 2
  end;
  match Discover.discover ~source ~target ~corrs () with
  | [] ->
      Fmt.epr "%s: error: no mapping discovered@." file;
      exit 1
  | best :: _ ->
      let hop =
        {
          Pipeline.h_source = source.Discover.schema;
          h_target = target.Discover.schema;
          h_tgds = Mapping.outer_variants ~target:target.Discover.schema best;
        }
      in
      Fmt.pr "%s: %s (%d tgd(s))@." file best.Mapping.m_name
        (List.length hop.Pipeline.h_tgds);
      (doc, hop)

let run_compose files invert verify size seed budget_ms fuel domains =
  if files = [] then begin
    Fmt.epr "error: --pipeline needs at least one scenario file@.";
    exit 2
  end;
  with_domains domains @@ fun pool ->
  let docs_hops = List.map load_hop files in
  let first_doc = fst (List.hd docs_hops) in
  let hops0 = List.map snd docs_hops in
  let budget = make_budget budget_ms fuel in
  let first = List.hd hops0 in
  let last0 = List.nth hops0 (List.length hops0 - 1) in
  let hops =
    if not invert then hops0
    else begin
      let fwd_exec =
        match hops0 with
        | [ h ] -> h.Pipeline.h_tgds
        | _ -> (Pipeline.compose_chain ?budget hops0).Compose.c_exec
      in
      let primed = Invert.prime_schema ~suffix:"_inv" first.Pipeline.h_source in
      Fmt.pr "appending quasi-inverse hop: %s -> %s@."
        last0.Pipeline.h_target.Schema.schema_name
        primed.Schema.schema_name;
      hops0
      @ [
          {
            Pipeline.h_source = last0.Pipeline.h_target;
            h_target = primed;
            h_tgds = Invert.quasi_inverse ~prime:"_inv" fwd_exec;
          };
        ]
    end
  in
  if List.length hops < 2 then begin
    Fmt.epr
      "error: composition needs at least two hops; chain several files with \
       --pipeline a.smg,b.smg or round-trip one with --invert@.";
    exit 2
  end;
  List.iter (Fmt.epr "warning: %s@.") (Pipeline.check hops);
  let r = Pipeline.compose_chain ?budget hops in
  Fmt.pr "@.== composed mapping (%d hop(s)) ==@.%a@." (List.length hops)
    Compose.pp r;
  (match r.Compose.c_budget with
  | Some reason ->
      Fmt.epr "error: %a budget exhausted during composition@."
        Budget.pp_reason reason;
      exit 3
  | None -> ());
  if verify then begin
    let src_schema = (List.hd hops).Pipeline.h_source in
    let inst =
      let from_data = Ast.instance_of first_doc src_schema in
      if Smg_relational.Instance.total_tuples from_data > 0 then begin
        Fmt.pr "@.verifying over the first scenario's data blocks@.";
        from_data
      end
      else begin
        let n_tables = max 1 (List.length src_schema.Schema.tables) in
        let rows = max 1 (size / n_tables) in
        Fmt.pr "@.verifying over a generated source (%d rows/table, seed %d)@."
          rows seed;
        Smg_eval.Witness.populate_cached ~rows_per_table:rows ~seed src_schema
      end
    in
    match Pipeline.verify ?budget ?pool hops ~exec:r.Compose.c_exec inst with
    | Ok vd ->
        Fmt.pr "%a@." Pipeline.pp_verdict vd;
        if not vd.Pipeline.vd_equiv then begin
          Fmt.epr
            "error: composed one-shot result is not hom-equivalent to the \
             sequential pipeline@.";
          exit 1
        end
    | Error (Pipeline.Exhausted reason) ->
        Fmt.epr "error: %a budget exhausted during verification@."
          Budget.pp_reason reason;
        exit 3
    | Error (Pipeline.Failed msg) ->
        Fmt.epr "error: pipeline execution failed: %s@." msg;
        exit 1
  end

let run_ddl file =
  let doc, source, target = load file in
  ignore doc;
  Fmt.pr "-- source schema@.%s@.@.-- target schema@.%s@."
    (Smg_relational.Sql_ddl.create_schema source.Discover.schema)
    (Smg_relational.Sql_ddl.create_schema target.Discover.schema)

let run_dot file which =
  let doc, source, target = load file in
  ignore doc;
  let side = match which with `Source -> source | `Target -> target in
  print_string
    (Smg_cm.Dot.of_cm_graph
       ~name:side.Discover.schema.Smg_relational.Schema.schema_name
       side.Discover.cmg)

(* generate: synthesize a complete discovery scenario from a seeded
   parameter vector (lib/generate). --emit-dsl prints the scenario as
   .smg text (round-trips through the parser); --check N instead runs N
   consecutive seeds through discovery + dedup + exchange under a fuel
   budget and reports a smoke summary — the CI generate job. *)

module Gen = Smg_generate.Gen
module Gparams = Smg_generate.Params

let run_generate seed isa_depth roots reify partof attrs density scale emit_dsl
    with_data out check fuel =
  let params seed =
    Gparams.clamp
      {
        Gparams.seed;
        isa_depth;
        n_roots = roots;
        reify;
        partof;
        attrs_per_class = attrs;
        corr_density = density;
        scale;
      }
  in
  if check > 0 then begin
    let crashes = ref 0
    and violations = ref 0
    and no_map = ref 0
    and egd = ref 0
    and ok = ref 0 in
    for s = seed to seed + check - 1 do
      let p = params s in
      match
        let g = Gen.build p in
        let source = g.Gen.g_source and target = g.Gen.g_target in
        let inst = Gen.source_instance ~scale:(min p.Gparams.scale 500) g in
        let n_viol =
          List.length
            (Smg_relational.Instance.check_rics source.Discover.schema inst)
        in
        if n_viol > 0 then violations := !violations + n_viol;
        let budget = Budget.create ~fuel:(Option.value ~default:500_000 fuel) () in
        let o =
          Discover.discover_bounded ~budget ~source ~target
            ~corrs:g.Gen.g_corrs ()
        in
        let sem = Render.label_by_rank o.Discover.o_mappings in
        let ric =
          Render.label_by_rank
            (Smg_ric.Baseline.generate ~source:source.Discover.schema
               ~target:target.Discover.schema ~corrs:g.Gen.g_corrs)
        in
        let _report =
          Mapverify.dedup ~source:source.Discover.schema
            ~target:target.Discover.schema (sem @ ric)
        in
        match o.Discover.o_mappings with
        | [] -> `No_map
        | best :: _ -> (
            let tgds = Mapping.outer_variants ~target:target.Discover.schema best in
            match
              Smg_exchange.Engine.run ~source:source.Discover.schema
                ~target:target.Discover.schema ~mappings:tgds inst
            with
            | Ok _ -> `Ok
            | Error _ -> `Egd)
      with
      | `Ok -> incr ok
      | `No_map -> incr no_map
      | `Egd -> incr egd
      | exception e ->
          incr crashes;
          Fmt.epr "seed %d: CRASH %s@." s (Printexc.to_string e)
    done;
    Fmt.pr
      "generate --check %d: %d exchanged, %d without candidates, %d target-egd \
       conflicts, %d RIC violation(s), %d crash(es)@."
      check !ok !no_map !egd !violations !crashes;
    if !crashes > 0 || !violations > 0 then exit 1
  end
  else begin
    let p = params seed in
    let g = Gen.build p in
    if emit_dsl then begin
      let text = Gen.dsl ~with_data g in
      match out with
      | None -> print_string text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Fmt.pr "wrote %s (%d bytes)@." path (String.length text)
    end
    else begin
      let side_stats label (side : Discover.side) =
        let n_cols =
          List.fold_left
            (fun acc (t : Schema.table) ->
              acc + List.length (Schema.column_names t))
            0 side.Discover.schema.Schema.tables
        in
        Fmt.pr "%-7s %d table(s), %d column(s), %d RIC(s)@." label
          (List.length side.Discover.schema.Schema.tables)
          n_cols
          (List.length side.Discover.schema.Schema.rics)
      in
      Fmt.pr "%a@." Gparams.pp p;
      side_stats "source:" g.Gen.g_source;
      side_stats "target:" g.Gen.g_target;
      Fmt.pr "cases:  %d target table(s) with correspondences; focus case %d \
              corr(s)@."
        (List.length g.Gen.g_cases)
        (List.length g.Gen.g_corrs);
      let inst = Gen.source_instance g in
      Fmt.pr "data:   %d source tuple(s) at scale %d (0 RIC violation(s) by \
              construction)@."
        (Smg_relational.Instance.total_tuples inst)
        p.Gparams.scale
    end
  end

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let meth_arg =
  let meth_conv =
    Arg.enum [ ("semantic", Semantic); ("ric", Ric); ("both", Both) ]
  in
  Arg.(value & opt meth_conv Both & info [ "m"; "method" ] ~docv:"METHOD")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ])
let sql_arg = Arg.(value & flag & info [ "sql" ] ~doc:"Also print SQL renderings")

let dedup_arg =
  Arg.(
    value & flag
    & info [ "dedup" ]
        ~doc:
          "Collapse logically equivalent candidates (keeping the best-ranked \
           representative) and annotate subsumed ones; prints a dedup summary \
           line per method")

let limit_arg =
  Arg.(
    value & opt int 8
    & info [ "limit" ] ~docv:"N"
        ~doc:"Compare at most N candidates per method in the matrix")

let which_arg =
  let side_conv = Arg.enum [ ("source", `Source); ("target", `Target) ] in
  Arg.(value & opt side_conv `Source & info [ "side" ] ~docv:"SIDE")

let threshold_arg =
  Arg.(value & opt float 0.55 & info [ "t"; "threshold" ] ~docv:"T")

(* serve: the discovery/exchange service. The accept loop owns the
   calling domain; SIGTERM/SIGINT flip the stop flag, the loop drains
   in-flight connections, and the per-endpoint counters are logged on
   the way out. *)
let run_serve port domains max_inflight budget_ms fuel seed no_preload journal
    idle_timeout drain_deadline shards =
  let domains =
    match domains with
    | Some n -> max 1 n
    | None -> Smg_parallel.Pool.default_domains ()
  in
  let cfg =
    {
      Smg_serve.Server.port;
      domains;
      max_inflight;
      budget_ms = Option.map int_of_float budget_ms;
      fuel;
      seed;
      preload = not no_preload;
      journal;
      fault = None;
      idle_timeout_s = idle_timeout;
      drain_deadline_s = drain_deadline;
      retry = Smg_robust.Retry.default;
      breaker = Smg_robust.Breaker.default_config;
      shards;
    }
  in
  let srv =
    try Smg_serve.Server.create cfg
    with Unix.Unix_error (e, _, _) ->
      Fmt.epr "error: cannot bind 127.0.0.1:%d: %s@." port
        (Unix.error_message e);
      exit 2
  in
  (* a peer closing mid-response must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ = Smg_serve.Server.stop srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let met = Smg_serve.Server.metrics srv in
  (match journal with
  | Some path ->
      Fmt.pr "mapdisc serve: journal %s (%d scenario(s) recovered in %.1f ms)@."
        path
        (Smg_serve.Metrics.recovered_count met)
        (Smg_serve.Metrics.recovery_ms met)
  | None -> ());
  Fmt.pr "mapdisc serve: listening on 127.0.0.1:%d (%d domain(s), max %d \
          connection(s))@."
    (Smg_serve.Server.port srv) domains max_inflight;
  let drained = Smg_serve.Server.run srv in
  if not drained then
    Fmt.epr
      "mapdisc serve: warning: drain deadline (%.1fs) passed with requests \
       still in flight@."
      drain_deadline;
  Fmt.pr "mapdisc serve: shutdown@.";
  Fmt.pr "%a" Smg_serve.Metrics.pp_summary met

(* chaos: the survival proof. Drives the same seeded workload against
   a clean and a fault-injected in-process server and classifies every
   response against the contract; exit 0 only when nothing hung,
   crashed, or corrupted (and, with --journal, the post-crash restart
   reproduced the reference bytes). *)
let run_chaos seed requests domains journal json =
  let domains =
    match domains with
    | Some n -> max 1 n
    | None -> Smg_parallel.Pool.default_domains ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    {
      (Smg_serve.Chaos.config ?journal ~seed ~requests ~domains ()) with
      Smg_serve.Chaos.c_log =
        (fun line -> if not json then Fmt.epr "%s@." line);
    }
  in
  let report = Smg_serve.Chaos.run cfg in
  if json then print_string (Smg_serve.Chaos.report_json report)
  else Fmt.pr "%a" Smg_serve.Chaos.pp_report report;
  exit (if Smg_serve.Chaos.ok report then 0 else 1)

let opt_file_arg = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Run a built-in evaluation domain (dblp, mondial, amalgam, 3sdb, \
           ut, hotel, network) over a generated source instead of a FILE")

let size_arg =
  Arg.(
    value & opt int 1000
    & info [ "size" ] ~docv:"N"
        ~doc:
          "Approximate source-instance size in tuples (--scenario mode; \
           spread over the source tables)")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Seed for generated witness instances (--scenario mode, or a FILE \
           without data blocks); echoed in the --json head so runs are \
           reproducible from their artifact")

(* generate parameter vector — defaults mirror Smg_generate.Params.default *)
let gen_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"S"
        ~doc:"Master seed; every artifact is a pure function of the vector")

let isa_depth_arg =
  Arg.(
    value & opt int 1
    & info [ "isa-depth" ] ~docv:"D" ~doc:"ISA chain length under each root (0-4)")

let roots_arg =
  Arg.(
    value & opt int 3
    & info [ "roots" ] ~docv:"N" ~doc:"Root entity count (1-8)")

let reify_arg =
  Arg.(
    value & opt int 1
    & info [ "reify" ] ~docv:"N" ~doc:"Reified n-ary relationship count (0-4)")

let partof_arg =
  Arg.(
    value & opt int 1
    & info [ "partof" ] ~docv:"L" ~doc:"partOf chain length off the first root (0-4)")

let attrs_arg =
  Arg.(
    value & opt int 2
    & info [ "attrs" ] ~docv:"K" ~doc:"Plain attributes per class (1-6)")

let density_arg =
  Arg.(
    value & opt float 1.0
    & info [ "corr-density" ] ~docv:"F"
        ~doc:"Fraction of each case's correspondences kept (0.05-1.0)")

let scale_arg =
  Arg.(
    value & opt int 200
    & info [ "scale" ] ~docv:"N"
        ~doc:"Witness-instance size in tuples, spread over the source tables \
              (10-2000000)")

let emit_dsl_arg =
  Arg.(
    value & flag
    & info [ "emit-dsl" ]
        ~doc:"Print the scenario as .smg DSL text (round-trips through the \
              parser) instead of a summary")

let with_data_arg =
  Arg.(
    value & flag
    & info [ "with-data" ]
        ~doc:"Embed the witness source instance as data blocks in the emitted \
              DSL (only sensible at small --scale)")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Write the emitted DSL to PATH")

let check_arg =
  Arg.(
    value & opt int 0
    & info [ "check" ] ~docv:"N"
        ~doc:
          "Smoke mode: run N consecutive seeds (starting at --seed) through \
           lowering, population, discovery + dedup, and exchange under a fuel \
           budget; exit 1 on any crash or RIC violation")

let apply_delta_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "apply-delta" ] ~docv:"FILE"
        ~doc:
          "Apply a batch of source inserts/deletes (one $(b,+)/$(b,-) \
           $(i,table(values...)) per line) incrementally: the target is \
           maintained through the delta chase instead of re-chased. With \
           --json the document matches a served POST \
           /scenarios/:name/delta body")

let engine_arg =
  let engine_conv = Arg.enum [ ("fast", `Fast); ("chase", `Chase) ] in
  Arg.(
    value & opt engine_conv `Fast
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Executor: $(b,fast) (hash-join plans, semi-naive re-firing) or \
           $(b,chase) (the naive chase baseline)")

let no_laconic_arg =
  Arg.(
    value & flag
    & info [ "no-laconic" ]
        ~doc:
          "Disable the laconic preparation/sweep of the fast engine (its \
           output then matches the naive chase shape)")

let core_arg =
  Arg.(
    value & flag
    & info [ "core" ]
        ~doc:"Also fold the result to its core (can be slow on large outputs)")

let data_arg =
  Arg.(
    value & flag
    & info [ "data" ]
        ~doc:
          "Print the full target instance (default in FILE mode; --scenario \
           mode prints cardinalities only)")

let budget_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline in milliseconds; when it passes, exact \
           searches degrade to approximate fallbacks (discover) or the run \
           stops with a partial result (exchange, exit 3)")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Deterministic work budget: N units of search/execution work \
           (Steiner DP rows, enumerated paths, scanned tuples, minted \
           nulls); same degradation behaviour as --budget-ms, but \
           reproducible")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Exit non-zero on any degradation: 2 when diagnostics contain \
           errors, 3 when the budget forced approximate results")

let diagnostics_arg =
  Arg.(
    value & flag
    & info [ "diagnostics" ]
        ~doc:
          "Print the structured diagnostics of the validation and discovery \
           stages (severity, stage, subject, location) plus a summary")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit machine-readable JSON (candidates with tgd/executable forms, \
           provenance, diagnostics, exactness) instead of the human report")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Number of OCaml domains for the parallel sections (per-CSG \
           discovery fan-out, dedup implication checks, the exchange \
           engine's initial scan pass). Defaults to $(b,SMG_DOMAINS) or the \
           runtime's recommended domain count, capped at 8; $(b,1) runs \
           fully sequentially. Discovery output is byte-identical and \
           exchange output homomorphically equivalent for every N")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Hash-partition count for the exchange stores' membership tables \
           (and the maintained source stores under --apply-delta). Defaults \
           to $(b,SMG_SHARDS), else the pool's domain count. Invisible to \
           the output: a good starting point is shards ≈ domains")

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "port" ] ~docv:"P"
        ~doc:"Listen on 127.0.0.1:$(docv); $(b,0) picks an ephemeral port")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"K"
        ~doc:
          "Admission control: with $(docv) connections open, new ones are \
           answered 429 and closed")

let no_preload_arg =
  Arg.(
    value & flag
    & info [ "no-preload" ]
        ~doc:
          "Start with an empty registry instead of preloading the seven \
           built-in evaluation domains")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Crash-safe registry journal: scenario mutations are fsynced to \
           $(docv) before they are acknowledged and replayed on startup, \
           re-warming the recovered scenarios' caches")

let idle_timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "idle-timeout" ] ~docv:"S"
        ~doc:
          "Per-connection read/write deadline in seconds; an idle socket is \
           answered 408 and closed")

let drain_deadline_arg =
  Arg.(
    value & opt float 10.0
    & info [ "drain-deadline" ] ~docv:"S"
        ~doc:
          "Bound in seconds on the shutdown drain of in-flight requests; \
           past it stuck work is abandoned to process exit")

let chaos_requests_arg =
  Arg.(
    value & opt int 1000
    & info [ "requests" ] ~docv:"K"
        ~doc:"Workload length (clamped to at least 8)")

let pipeline_arg =
  Arg.(
    value
    & opt (list file) []
    & info [ "pipeline" ] ~docv:"S1.SMG,S2.SMG,..."
        ~doc:
          "Scenario files forming the pipeline, in hop order: each file's \
           target schema is the next file's source")

let invert_arg =
  Arg.(
    value & flag
    & info [ "invert" ]
        ~doc:
          "Append the quasi-inverse of the forward composition as a final \
           hop (reverse migration into a primed copy of the original \
           source); with a single file this makes a round-trip chain")

let verify_flag_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Materialize the chain hop by hop and in one composed shot, and \
           check the two results are homomorphically equivalent (exit 1 if \
           not)")

let () =
  let discover_cmd =
    Cmd.v
      (Cmd.info "discover" ~doc:"Discover mapping candidates for a scenario")
      Term.(
        const run_discover $ file_arg $ meth_arg $ verbose_arg $ sql_arg
        $ dedup_arg $ budget_ms_arg $ fuel_arg $ strict_arg $ diagnostics_arg
        $ json_arg $ domains_arg)
  in
  let compose_cmd =
    Cmd.v
      (Cmd.info "compose"
         ~doc:
           "Compose a multi-hop pipeline of scenarios into a single mapping \
            (optionally inverted and verified end-to-end)")
      Term.(
        const run_compose $ pipeline_arg $ invert_arg $ verify_flag_arg
        $ size_arg $ seed_arg $ budget_ms_arg $ fuel_arg $ domains_arg)
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Containment/equivalence matrix over both methods' candidates, \
            dedup report, and cross-method redundancy")
      Term.(const run_verify $ file_arg $ limit_arg)
  in
  let match_cmd =
    Cmd.v
      (Cmd.info "match" ~doc:"Propose column correspondences (name matcher)")
      Term.(const run_match $ file_arg $ threshold_arg)
  in
  let show_cmd =
    Cmd.v
      (Cmd.info "show" ~doc:"Parse and pretty-print a scenario file")
      Term.(const run_show $ file_arg)
  in
  let serve_cmd =
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Serve discovery and exchange over HTTP, caching parsed \
            scenarios, discovery output, and compiled tgd plans per \
            content hash (PUT /scenarios/:name, then POST \
            /scenarios/:name/{discover,exchange,compose,verify}; GET \
            /metrics for counters)")
      Term.(
        const run_serve $ port_arg $ domains_arg $ max_inflight_arg
        $ budget_ms_arg $ fuel_arg $ seed_arg $ no_preload_arg $ journal_arg
        $ idle_timeout_arg $ drain_deadline_arg $ shards_arg)
  in
  let chaos_cmd =
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Prove the service survives injected faults: drive a seeded \
            workload against a clean and a faulted in-process server and \
            classify every response (byte-identical, retried, breaker shed, \
            sound partial, clean error — never a hang, crash, or corrupt \
            body); with --journal, kill the faulted server and check the \
            restart recovers every scenario byte-identically. Exit 0 only \
            when the contract holds")
      Term.(
        const run_chaos $ seed_arg $ chaos_requests_arg $ domains_arg
        $ journal_arg $ json_arg)
  in
  let generate_cmd =
    Cmd.v
      (Cmd.info "generate"
         ~doc:
           "Synthesize a discovery scenario from a seeded parameter vector \
            (ISA depth, reified relationships, partOf chains, correspondence \
            density, witness scale); --emit-dsl prints valid .smg text, \
            --check N smoke-tests N seeds end-to-end")
      Term.(
        const run_generate $ gen_seed_arg $ isa_depth_arg $ roots_arg
        $ reify_arg $ partof_arg $ attrs_arg $ density_arg $ scale_arg
        $ emit_dsl_arg $ with_data_arg $ out_arg $ check_arg $ fuel_arg)
  in
  let exchange_cmd =
    Cmd.v
      (Cmd.info "exchange"
         ~doc:
           "Discover the best mapping(s) and execute them: over a scenario \
            FILE's data blocks, or over a generated source for a built-in \
            domain (--scenario NAME --size N)")
      Term.(
        const run_exchange $ opt_file_arg $ scenario_arg $ size_arg $ seed_arg
        $ engine_arg $ no_laconic_arg $ core_arg $ data_arg $ budget_ms_arg
        $ fuel_arg $ json_arg $ domains_arg $ shards_arg $ apply_delta_arg)
  in
  let ddl_cmd =
    Cmd.v
      (Cmd.info "ddl" ~doc:"Emit CREATE TABLE statements for both schemas")
      Term.(const run_ddl $ file_arg)
  in
  let dot_cmd =
    Cmd.v
      (Cmd.info "dot" ~doc:"Emit a GraphViz rendering of a side's CM graph")
      Term.(const run_dot $ file_arg $ which_arg)
  in
  let info =
    Cmd.info "mapdisc" ~version:"1.0"
      ~doc:"Semantic schema-mapping discovery (An et al., ICDE 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            discover_cmd;
            verify_cmd;
            match_cmd;
            show_cmd;
            exchange_cmd;
            compose_cmd;
            generate_cmd;
            serve_cmd;
            chaos_cmd;
            ddl_cmd;
            dot_cmd;
          ]))
