module Ast = Smg_dsl.Ast
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover
module Diag = Smg_robust.Diag
module Engine = Smg_exchange.Engine
module Scenario = Smg_eval.Scenario
module Batch = Smg_delta.Batch
module Maintain = Smg_delta.Maintain

type kind = Dsl of Ast.t | Builtin of Scenario.t

type entry = {
  en_name : string;
  en_hash : string;
  en_kind : kind;
  en_source : Discover.side;
  en_target : Discover.side;
  en_corrs : Mapping.corr list;
}

(* One cell per scenario name: the entry plus every cached artifact.
   [c_lock] makes each cell's caches single-flight; the table lock only
   guards the name -> cell map, so requests against different scenarios
   never contend. *)
type cell = {
  mutable c_entry : entry;
  c_lock : Mutex.t;
  c_discover : (string, Render.discover_output) Hashtbl.t;
  mutable c_tgds : (Smg_cq.Dependency.tgd list, string) result option;
  c_instances : (string, Instance.t) Hashtbl.t;
  c_plans : (string, Engine.compiled) Hashtbl.t;
  c_maintain : (string, Maintain.state) Hashtbl.t;
}

type t = {
  t_lock : Mutex.t;
  t_cells : (string, cell) Hashtbl.t;
  t_fault : Smg_robust.Fault.t option;
  t_retry : Smg_robust.Retry.policy;
  t_on_retry : tries:int -> ok:bool -> unit;
  t_shards : int option;
      (* membership-partition count forwarded to every engine execution
         and delta init; None defers to SMG_SHARDS / pool size *)
  mutable t_shard_view : Smg_exchange.Obs.shard_view option;
      (* the most recent execution's shard/intern snapshot — a single
         word, so the unlocked write is atomic; GET /metrics reads it *)
}

let create ?fault ?(retry = Smg_robust.Retry.default)
    ?(on_retry = fun ~tries:_ ~ok:_ -> ()) ?shards () =
  {
    t_lock = Mutex.create ();
    t_cells = Hashtbl.create 16;
    t_fault = fault;
    t_retry = retry;
    t_on_retry = on_retry;
    t_shards = shards;
    t_shard_view = None;
  }

let shard_view t = t.t_shard_view

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let fire t point =
  match t.t_fault with
  | Some f -> Smg_robust.Fault.fire f point
  | None -> ()

(* Store and compile faults are the transient class: absorbed by the
   retry policy server-side, so a flaky mutation surfaces to the client
   as a (slightly slower) success, not a 500. Anything else — parse
   faults included — is not retried. *)
let transient = function
  | Smg_robust.Fault.Injected
      (Smg_robust.Fault.Registry_store | Smg_robust.Fault.Plan_compile) ->
      true
  | _ -> false

let with_retry t f =
  let o = Smg_robust.Retry.run t.t_retry ~retryable:transient f in
  (match o.Smg_robust.Retry.result with
  | Ok _ when o.Smg_robust.Retry.tries > 1 ->
      t.t_on_retry ~tries:o.Smg_robust.Retry.tries ~ok:true
  | Error _ when o.Smg_robust.Retry.tries > 1 ->
      t.t_on_retry ~tries:o.Smg_robust.Retry.tries ~ok:false
  | _ -> ());
  match o.Smg_robust.Retry.result with Ok v -> v | Error e -> raise e

let fresh_cell entry =
  {
    c_entry = entry;
    c_lock = Mutex.create ();
    c_discover = Hashtbl.create 4;
    c_tgds = None;
    c_instances = Hashtbl.create 4;
    c_plans = Hashtbl.create 4;
    c_maintain = Hashtbl.create 2;
  }

(* ---- lowering ---------------------------------------------------------- *)

let sides_of_doc (doc : Ast.t) =
  match (doc.Ast.doc_schemas, doc.Ast.doc_cms) with
  | [ src_schema; tgt_schema ], [ src_cm; tgt_cm ] ->
      (* mirror of the CLI loader: semantics blocks carry only a table
         name, so pick per table the first block whose s-tree validates
         against this side's CM, falling back to the first name match
         so genuine validation errors still surface in Discover.side *)
      let strees_for (schema : Schema.t) (cm : Smg_cm.Cml.t) =
        let cmg = Smg_cm.Cm_graph.compile cm in
        List.filter_map
          (fun (t : Schema.table) ->
            let blocks =
              List.filter
                (fun (b : Ast.semantics_block) ->
                  String.equal b.Ast.sem_table t.Schema.tbl_name)
                doc.Ast.doc_semantics
            in
            let validates (b : Ast.semantics_block) =
              match Smg_semantics.Stree.validate cmg t b.Ast.sem_stree with
              | () -> true
              | exception Invalid_argument _ -> false
            in
            match (List.find_opt validates blocks, blocks) with
            | Some b, _ | None, b :: _ -> Some b.Ast.sem_stree
            | None, [] -> None)
          schema.Schema.tables
      in
      let mk label schema cm =
        try Ok (Discover.side ~schema ~cm (strees_for schema cm))
        with Invalid_argument msg | Failure msg ->
          Error (Printf.sprintf "%s side: %s" label msg)
      in
      Result.bind (mk "source" src_schema src_cm) (fun source ->
          Result.map
            (fun target -> (source, target))
            (mk "target" tgt_schema tgt_cm))
  | _ -> Error "a scenario needs exactly two schemas and two CMs"

let scenario_tgds (scen : Scenario.t) =
  let target = scen.Scenario.target in
  List.concat_map
    (fun (case : Scenario.case) ->
      match Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen case with
      | [] -> []
      | best :: _ ->
          let best = Mapping.rename case.Scenario.case_name best in
          Mapping.outer_variants ~target:target.Discover.schema best)
    scen.Scenario.cases

(* ---- registration ------------------------------------------------------ *)

let put t ~name ~text =
  (* a parse fault is not retryable: it raises out of [put] into the
     server's supervisor, which answers a diagnosed 500 *)
  fire t Smg_robust.Fault.Parse;
  match Smg_dsl.Parser.parse_result ~file:name text with
  | Error d -> Error d
  | Ok doc -> (
      match sides_of_doc doc with
      | Error msg -> Error (Diag.errorf ~subject:name Diag.Validate "%s" msg)
      | Ok (source, target) ->
          if doc.Ast.doc_corrs = [] then
            Error
              (Diag.errorf ~subject:name Diag.Validate
                 "the scenario declares no correspondences")
          else begin
            let hash = Digest.to_hex (Digest.string text) in
            with_lock t.t_lock @@ fun () ->
            match Hashtbl.find_opt t.t_cells name with
            | Some cell when cell.c_entry.en_hash = hash ->
                Ok (cell.c_entry, true)
            | prior ->
                let entry =
                  {
                    en_name = name;
                    en_hash = hash;
                    en_kind = Dsl doc;
                    en_source = source;
                    en_target = target;
                    en_corrs = doc.Ast.doc_corrs;
                  }
                in
                let cell = fresh_cell entry in
                with_retry t (fun () ->
                    fire t Smg_robust.Fault.Registry_store;
                    match prior with
                    | Some _ -> Hashtbl.replace t.t_cells name cell
                    | None -> Hashtbl.add t.t_cells name cell);
                Ok (entry, false)
          end)

let find t name =
  with_lock t.t_lock @@ fun () ->
  Option.map (fun c -> c.c_entry) (Hashtbl.find_opt t.t_cells name)

let names t =
  with_lock t.t_lock @@ fun () ->
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.t_cells [])

let remove t name =
  with_lock t.t_lock @@ fun () ->
  let existed = Hashtbl.mem t.t_cells name in
  if existed then
    with_retry t (fun () ->
        fire t Smg_robust.Fault.Registry_store;
        Hashtbl.remove t.t_cells name);
  existed

let size t = with_lock t.t_lock @@ fun () -> Hashtbl.length t.t_cells

let preload_builtins t =
  List.iter
    (fun (scen : Scenario.t) ->
      let name = String.lowercase_ascii scen.Scenario.scen_name in
      let corrs =
        List.concat_map (fun (c : Scenario.case) -> c.Scenario.corrs)
          scen.Scenario.cases
      in
      let entry =
        {
          en_name = name;
          en_hash = "builtin:" ^ name;
          en_kind = Builtin scen;
          en_source = scen.Scenario.source;
          en_target = scen.Scenario.target;
          en_corrs = corrs;
        }
      in
      with_lock t.t_lock @@ fun () ->
      if not (Hashtbl.mem t.t_cells name) then
        Hashtbl.add t.t_cells name (fresh_cell entry))
    (Smg_eval.Datasets.all ())

(* The cell backing an entry, if the registry still holds that exact
   content; a concurrent replacement makes requests against the stale
   entry compute uncached rather than pollute the new cell's caches. *)
let cell_of t (entry : entry) =
  with_lock t.t_lock @@ fun () ->
  match Hashtbl.find_opt t.t_cells entry.en_name with
  | Some cell when cell.c_entry.en_hash = entry.en_hash -> Some cell
  | _ -> None

(* ---- discovery --------------------------------------------------------- *)

type hit = [ `Hit | `Miss ]

let discover_key meth dedup =
  (match meth with `Semantic -> "sem" | `Ric -> "ric" | `Both -> "both")
  ^ if dedup then ":dedup" else ""

let compute_discover ?budget ~meth ~dedup (entry : entry) =
  Render.discover_json ?budget ~meth ~dedup ~file:entry.en_name
    ~source:entry.en_source ~target:entry.en_target ~corrs:entry.en_corrs ()

let discover t ?budget ~meth ~dedup entry =
  match cell_of t entry with
  | None -> (compute_discover ?budget ~meth ~dedup entry, `Miss)
  | Some cell -> (
      let key = discover_key meth dedup in
      with_lock cell.c_lock @@ fun () ->
      match Hashtbl.find_opt cell.c_discover key with
      | Some out -> (out, `Hit)
      | None ->
          let out = compute_discover ?budget ~meth ~dedup entry in
          Hashtbl.add cell.c_discover key out;
          (out, `Miss))

(* ---- executable tgds --------------------------------------------------- *)

let compute_tgds (entry : entry) =
  match entry.en_kind with
  | Builtin scen -> (
      match scenario_tgds scen with
      | [] ->
          Error
            (Printf.sprintf "discovery produced no mapping for %s"
               scen.Scenario.scen_name)
      | tgds -> Ok tgds)
  | Dsl _ -> (
      match
        Discover.discover ~source:entry.en_source ~target:entry.en_target
          ~corrs:entry.en_corrs ()
      with
      | [] -> Error "no mapping discovered"
      | best :: _ ->
          Ok
            (Mapping.outer_variants ~target:entry.en_target.Discover.schema
               best))

let entry_tgds t entry =
  match cell_of t entry with
  | None -> compute_tgds entry
  | Some cell -> (
      with_lock cell.c_lock @@ fun () ->
      match cell.c_tgds with
      | Some r -> r
      | None ->
          let r = compute_tgds entry in
          cell.c_tgds <- Some r;
          r)

(* ---- exchange ---------------------------------------------------------- *)

type exchange_result =
  | Ex_ok of string * hit
  | Ex_partial of Smg_robust.Budget.reason * string
  | Ex_bad of string
  | Ex_failed of string

(* How to obtain the source instance, and the head fields of the
   response document. A scenario with data blocks executes them (after
   a RIC check, as the CLI does); otherwise a deterministic witness
   instance is generated lazily — so a warm request can reuse the
   cached one — sized like [mapdisc exchange --scenario]: [size] total
   tuples split over the source tables. *)
let instance_plan ~size ~seed (entry : entry) =
  let schema = entry.en_source.Discover.schema in
  let witness () =
    let n_tables = max 1 (List.length schema.Schema.tables) in
    let rows = max 1 (size / n_tables) in
    Smg_eval.Witness.populate_cached ~rows_per_table:rows ~seed schema
  in
  let dims = [ ("size", string_of_int size); ("seed", string_of_int seed) ] in
  match entry.en_kind with
  | Builtin scen ->
      Ok
        ( witness,
          Printf.sprintf "%d:%d" size seed,
          ("scenario", Render.json_str scen.Scenario.scen_name) :: dims )
  | Dsl doc ->
      let inst = Ast.instance_of doc schema in
      if Instance.total_tuples inst = 0 then
        Ok
          ( witness,
            Printf.sprintf "%d:%d" size seed,
            ("file", Render.json_str entry.en_name) :: dims )
      else begin
        match Instance.check_rics schema inst with
        | [] ->
            Ok
              ( (fun () -> inst),
                "data",
                [ ("file", Render.json_str entry.en_name) ] )
        | violations ->
            Error
              (Printf.sprintf
                 "source data violates %d referential constraint(s)"
                 (List.length violations))
      end

let compile_for t ~laconic (entry : entry) inst tgds =
  with_retry t (fun () ->
      fire t Smg_robust.Fault.Plan_compile;
      Engine.compile
        ~card:(fun name -> Instance.cardinality inst name)
        ~laconic ~source:entry.en_source.Discover.schema
        ~target:entry.en_target.Discover.schema ~mappings:tgds ())

let exchange t ?budget ?(size = 1000) ?(seed = 42) ?(laconic = true) entry =
  match entry_tgds t entry with
  | Error msg -> Ex_failed msg
  | Ok tgds -> (
      match instance_plan ~size ~seed entry with
      | Error msg -> Ex_bad msg
      | Ok (make_inst, inst_key, head) -> (
          let plan_key = Printf.sprintf "%s:%b" inst_key laconic in
          let inst, compiled, hit =
            match cell_of t entry with
            | None ->
                let inst = make_inst () in
                (inst, compile_for t ~laconic entry inst tgds, `Miss)
            | Some cell ->
                with_lock cell.c_lock @@ fun () ->
                let inst =
                  match Hashtbl.find_opt cell.c_instances inst_key with
                  | Some i -> i
                  | None ->
                      let i = make_inst () in
                      Hashtbl.add cell.c_instances inst_key i;
                      i
                in
                (match Hashtbl.find_opt cell.c_plans plan_key with
                | Some c -> (inst, Ok c, `Hit)
                | None -> (
                    match compile_for t ~laconic entry inst tgds with
                    | Ok c ->
                        Hashtbl.add cell.c_plans plan_key c;
                        (inst, Ok c, `Miss)
                    | Error msg -> (inst, Error msg, `Miss)))
          in
          match compiled with
          | Error msg -> Ex_failed msg
          | Ok compiled -> (
              (* execution allocates all mutable state per call, so a
                 cached compiled value is safe under concurrency *)
              match
                Engine.execute ?budget ?fault:t.t_fault ?shards:t.t_shards
                  compiled inst
              with
              | Engine.Failed msg -> Ex_failed msg
              | Engine.Complete rep ->
                  t.t_shard_view <- Some rep.Engine.r_shards;
                  Ex_ok (Render.exchange_json ~head ~laconic rep, hit)
              | Engine.Budget_exhausted (reason, rep) ->
                  t.t_shard_view <- Some rep.Engine.r_shards;
                  let diag =
                    Diag.degraded ~subject:entry.en_name Diag.Exchange reason
                      "target instance is a partial prefix"
                  in
                  Ex_partial
                    ( reason,
                      Render.exchange_json ~head ~exhausted:reason
                        ~diags:[ diag ] ~laconic rep ))))

(* ---- incremental deltas ------------------------------------------------- *)

type delta_result = Dl_ok of string | Dl_bad of string | Dl_failed of string

let counters_json (c : Maintain.counters) =
  Printf.sprintf
    "{\"src_inserted\": %d, \"src_deleted\": %d, \"triggers_fired\": %d, \
     \"facts_added\": %d, \"facts_retracted\": %d, \"nulls_minted\": %d, \
     \"nulls_collected\": %d, \"egd_merges\": %d, \"egd_rebuilds\": %d, \
     \"full_rebuilds\": %d, \"seconds\": %.6f, \"egd_checked\": %d}"
    c.Maintain.mc_src_inserted c.Maintain.mc_src_deleted
    c.Maintain.mc_triggers_fired c.Maintain.mc_facts_added
    c.Maintain.mc_facts_retracted c.Maintain.mc_nulls_minted
    c.Maintain.mc_nulls_collected c.Maintain.mc_egd_merges
    c.Maintain.mc_egd_rebuilds c.Maintain.mc_full_rebuilds
    c.Maintain.mc_seconds c.Maintain.mc_egd_checked

(* The maintained state is keyed like the cached instances, so a delta
   against [size, seed] mutates exactly the instance the exchange
   endpoint serves for those parameters. On success the cell's cached
   instance is replaced by the maintained source — later exchanges (and
   a re-init after a poisoning failure) see the delta'd data. *)
let delta t ?(size = 1000) ?(seed = 42) entry (batch : Batch.t) =
  match entry_tgds t entry with
  | Error msg -> Dl_failed msg
  | Ok tgds -> (
      match instance_plan ~size ~seed entry with
      | Error msg -> Dl_bad msg
      | Ok (make_inst, inst_key, head) -> (
          match cell_of t entry with
          | None ->
              Dl_failed "scenario was replaced concurrently; retry the delta"
          | Some cell -> (
              with_lock cell.c_lock @@ fun () ->
              let st_or_err =
                match Hashtbl.find_opt cell.c_maintain inst_key with
                | Some st -> Ok st
                | None -> (
                    let inst =
                      match Hashtbl.find_opt cell.c_instances inst_key with
                      | Some i -> i
                      | None ->
                          let i = make_inst () in
                          Hashtbl.add cell.c_instances inst_key i;
                          i
                    in
                    let prep =
                      with_retry t (fun () ->
                          fire t Smg_robust.Fault.Plan_compile;
                          Maintain.prepare
                            ~card:(fun n -> Instance.cardinality inst n)
                            ~source:entry.en_source.Discover.schema
                            ~target:entry.en_target.Discover.schema
                            ~mappings:tgds ())
                    in
                    match prep with
                    | Error m -> Error m
                    | Ok compiled -> (
                        match Maintain.init ?shards:t.t_shards compiled inst with
                        | Error m -> Error m
                        | Ok st ->
                            Hashtbl.replace cell.c_maintain inst_key st;
                            Ok st))
              in
              match st_or_err with
              | Error m -> Dl_failed m
              | Ok st -> (
                  match Maintain.apply ?fault:t.t_fault st batch with
                  | Error m ->
                      (* poisoned: drop it so the next delta re-inits
                         from the last good instance *)
                      Hashtbl.remove cell.c_maintain inst_key;
                      Dl_failed m
                  | Ok (st, c) ->
                      Hashtbl.replace cell.c_instances inst_key
                        (Maintain.source st);
                      let head =
                        head
                        @ [
                            ("batch", string_of_int (Maintain.batches st));
                            ("delta", counters_json c);
                          ]
                      in
                      let rep = Maintain.report st in
                      t.t_shard_view <- Some rep.Engine.r_shards;
                      Dl_ok (Render.exchange_json ~head ~laconic:false rep)))))

(* ---- info -------------------------------------------------------------- *)

let info_json t entry =
  let kind = match entry.en_kind with Dsl _ -> "dsl" | Builtin _ -> "builtin" in
  let n_tables (side : Discover.side) =
    List.length side.Discover.schema.Schema.tables
  in
  let d, p, i =
    match cell_of t entry with
    | None -> (0, 0, 0)
    | Some cell ->
        with_lock cell.c_lock @@ fun () ->
        ( Hashtbl.length cell.c_discover,
          Hashtbl.length cell.c_plans,
          Hashtbl.length cell.c_instances )
  in
  String.concat ""
    [
      "{\"name\": ";
      Render.json_str entry.en_name;
      ", \"hash\": ";
      Render.json_str entry.en_hash;
      ", \"kind\": ";
      Render.json_str kind;
      ", \"source_tables\": ";
      string_of_int (n_tables entry.en_source);
      ", \"target_tables\": ";
      string_of_int (n_tables entry.en_target);
      ", \"corrs\": ";
      string_of_int (List.length entry.en_corrs);
      ", \"cached\": {\"discover\": ";
      string_of_int d;
      ", \"plans\": ";
      string_of_int p;
      ", \"instances\": ";
      string_of_int i;
      "}}";
    ]
