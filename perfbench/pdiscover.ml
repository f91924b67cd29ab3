(* discover phase: cold discovery, closed loop, one caller. One op is
   the served cold path of POST /scenarios/:name/discover?dedup=true
   without the socket: a fresh registry, a PUT of one document, and
   Registry.discover — text in, JSON bytes out. *)

open Perfbench_core
module Registry = Smg_serve.Registry
module Render = Smg_serve.Render
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Mapverify = Smg_verify.Mapverify
module Diag = Smg_robust.Diag

type out = { json : string; diags : Diag.t list; exact : bool }

let composed (name, text) =
  let reg = Registry.create () in
  match Registry.put reg ~name ~text with
  | Error d -> Error d.Diag.d_message
  | Ok (entry, _) ->
      let o, _ = Registry.discover reg ~meth:`Both ~dedup:true entry in
      Ok
        {
          json = o.Render.dj_json;
          diags = o.Render.dj_diags;
          exact = o.Render.dj_exact;
        }

(* Per-pass counters of the traced run. *)
let candidates = ref 0
let approximate = ref 0
let ric_candidates = ref 0
let dedup_in = ref 0
let dedup_kept = ref 0
let rendered_bytes = ref 0

(* The traced op: the public calls Render.discover_json makes for
   [~meth:`Both ~dedup:true], one by one, each in its own span. The
   document it assembles must equal the composed path's bytes. *)
let decomposed (name, text) =
  let span = Trace.with_span in
  match span "dsl.parse" (fun () -> Smg_dsl.Parser.parse_result ~file:name text) with
  | Error d -> Error d.Diag.d_message
  | Ok doc -> (
      match span "cm.lower" (fun () -> Registry.sides_of_doc doc) with
      | Error msg -> Error msg
      | Ok (source, target) ->
          let corrs = doc.Smg_dsl.Ast.doc_corrs in
          let source_s = source.Discover.schema
          and target_s = target.Discover.schema in
          let pre =
            span "core.lint" (fun () -> Discover.lint ~source ~target ~corrs)
          in
          let o =
            span "core.discover" (fun () ->
                Discover.discover_bounded ~source ~target ~corrs ())
          in
          candidates := !candidates + List.length o.Discover.o_mappings;
          approximate :=
            !approximate
            + List.length (List.filter Mapping.is_approximate o.Discover.o_mappings);
          let dedup ms =
            span "verify.dedup" (fun () ->
                let r =
                  Mapverify.dedup ~source:source_s ~target:target_s
                    (Render.label_by_rank ms)
                in
                dedup_in := !dedup_in + r.Mapverify.rp_in;
                dedup_kept := !dedup_kept + List.length r.Mapverify.rp_kept;
                r.Mapverify.rp_kept)
          in
          let sem = dedup o.Discover.o_mappings in
          let ric_raw =
            span "ric.baseline" (fun () ->
                Smg_ric.Baseline.generate ~source:source_s ~target:target_s ~corrs)
          in
          ric_candidates := !ric_candidates + List.length ric_raw;
          let ric = dedup ric_raw in
          let diags = pre @ o.Discover.o_diags in
          let json =
            span "render.discover" (fun () ->
                let section ms =
                  match ms with
                  | [] -> "[]"
                  | _ ->
                      "[\n"
                      ^ String.concat ",\n"
                          (List.mapi (Render.json_candidate source_s target_s) ms)
                      ^ "\n  ]"
                in
                let diags_json =
                  match diags with
                  | [] -> "[]"
                  | _ ->
                      "[\n"
                      ^ String.concat ",\n" (List.map Render.json_diag diags)
                      ^ "\n  ]"
                in
                String.concat ""
                  [
                    "{\"file\": "; Render.json_str name; ",\n";
                    " \"exact\": "; string_of_bool o.Discover.o_exact; ",\n";
                    " \"candidates\": "; section sem; ",\n";
                    " \"ric_candidates\": "; section ric; ",\n";
                    " \"diagnostics\": "; diags_json; "}\n";
                  ])
          in
          rendered_bytes := !rendered_bytes + String.length json;
          Ok { json; diags; exact = o.Discover.o_exact })

(* Untimed validity check: the 34 built-in paper cases, scored per case
   against the hand-written gold mappings, reproduce EXPERIMENTS.md's
   per-domain precision and recall (Figures 6 and 7). *)
let expected =
  [
    ("DBLP", (1.00, 0.11, 1.00, 0.83));
    ("Mondial", (0.87, 0.38, 1.00, 1.00));
    ("Amalgam", (0.79, 0.14, 1.00, 0.71));
    ("3Sdb", (1.00, 0.50, 1.00, 1.00));
    ("UT", (1.00, 0.12, 1.00, 1.00));
    ("Hotel", (1.00, 0.30, 1.00, 0.80));
    ("Network", (0.87, 0.39, 1.00, 0.67));
  ]

let check_paper_cases () =
  let module E = Smg_eval.Experiments in
  let results = E.run_all (Smg_eval.Datasets.all ()) in
  let cases =
    List.fold_left
      (fun n (r : E.domain_result) ->
        n + List.length r.E.dr_scenario.Smg_eval.Scenario.cases)
      0 results
  in
  Report.check "34 paper cases" (cases = 34);
  let r2 x = Float.round (x *. 100.) /. 100. in
  List.iter
    (fun (r : E.domain_result) ->
      let name = r.E.dr_scenario.Smg_eval.Scenario.scen_name in
      let got =
        ( r2 r.E.dr_sem_precision,
          r2 r.E.dr_ric_precision,
          r2 r.E.dr_sem_recall,
          r2 r.E.dr_ric_recall )
      in
      Report.check
        (Printf.sprintf "%s precision/recall match EXPERIMENTS.md" name)
        (List.assoc_opt name expected = Some got))
    results

let valid what (name, _) = function
  | Error msg ->
      Report.op_failed "%s %s: %s" what name msg;
      None
  | Ok o ->
      if List.exists (fun d -> d.Diag.d_severity = Diag.Error) o.diags then begin
        Report.op_failed "%s %s: Error diagnostic" what name;
        None
      end
      else if not o.exact then begin
        Report.op_failed "%s %s: inexact discovery" what name;
        None
      end
      else Some o

let start ~workload ~seed ~seconds ~trace =
  check_paper_cases ();
  let docs = Report.repeated_setup ~phase:"discover" (fun () -> Inputs.discover_docs workload) in
  let docs = Array.of_list (Inputs.shuffle (Inputs.rng seed 1) docs) in
  let n = Array.length docs in
  let reference = Hashtbl.create n in
  (* warm-up pass, discarded: it fills the reference bytes *)
  Array.iter
    (fun d ->
      match composed d with
      | Ok o -> Hashtbl.replace reference (fst d) o.json
      | Error msg -> Report.check (Printf.sprintf "%s discovers: %s" (fst d) msg) false)
    docs;
  let op_id = ref 0 in
  let untraced = ref [] and traced = ref [] and passes = ref [] in
  let per_doc = Hashtbl.create n in
  let traced_ops = ref [] in
  let bytes_equal = ref true in
  let pass_no = ref 0 and cursor = ref 0 and pass_ms = ref 0. in
  (* even passes run the decomposed op when tracing *)
  let tracing () = trace && !pass_no mod 2 = 0 in
  let step () =
    let d = docs.(!cursor) in
    incr op_id;
    let r, ms =
      if tracing () then
        Clock.time_ms (fun () -> Trace.with_op !op_id "discover.op" (fun () -> decomposed d))
      else Clock.time_ms (fun () -> composed d)
    in
    pass_ms := !pass_ms +. ms;
    (match valid "discover" d r with
    | None -> ()
    | Some o ->
        if Hashtbl.find_opt reference (fst d) <> Some o.json then begin
          if tracing () then bytes_equal := false;
          Report.op_failed "discover %s: bytes differ from the first pass" (fst d)
        end
        else begin
          Report.op_ok ();
          if tracing () then begin
            traced := ms :: !traced;
            traced_ops := !op_id :: !traced_ops
          end
          else begin
            untraced := ms :: !untraced;
            Hashtbl.replace per_doc (fst d)
              (ms :: Option.value ~default:[] (Hashtbl.find_opt per_doc (fst d)))
          end
        end);
    incr cursor;
    if !cursor = n then begin
      if not (tracing ()) then passes := !pass_ms :: !passes;
      incr pass_no;
      cursor := 0;
      pass_ms := 0.
    end
  in
  (* p90 needs ten ops beyond it: past the window, keep going (up to four
     windows) until 110 ops are measured, always ending on a whole pass *)
  let window = seconds *. 1000. in
  let finished () =
    !cursor = 0
    && (!Report.active_ms >= 4. *. window
       || (!Report.active_ms >= window && List.length !untraced >= 110))
  in
  let finish () =
    Hashtbl.iter
      (fun name ms -> Printf.eprintf "perfbench: discover %-40s %8.2f ms\n" name (Stats.median ms))
      per_doc;
    (* the geometric mean of the per-document medians: a median over all
       ops would sit on whichever document's cost level holds the middle
       rank, and jump between levels from run to run *)
    (match Hashtbl.fold (fun _ ms acc -> Stats.median ms :: acc) per_doc [] with
    | [] -> Report.check "discover measured every document" false
    | medians ->
        Report.metric "scenario_ms" "ms" ~samples:(List.length !untraced)
          (exp (Stats.mean (List.map log medians))));
    Report.tail_metric "scenario_p90_ms" "ms" 0.9 !untraced;
    (match !passes with
    | [] -> Report.check "discover ran a full pass" false
    | ps ->
        Report.metric "scenarios_per_s" "1/s" ~samples:(List.length ps)
          (float_of_int n /. (Stats.median ps /. 1000.)));
    if trace then begin
      Report.check "traced discover bytes equal the composed bytes" !bytes_equal;
      let spans = List.filter (fun s -> List.mem s.Trace.op !traced_ops) (Trace.all ()) in
      let layer metric span =
        Report.median_metric metric "ms" (Trace.per_op_ms spans span)
      in
      layer "dsl.parse_ms" "dsl.parse";
      layer "cm.lower_ms" "cm.lower";
      layer "core.lint_ms" "core.lint";
      layer "core.discover_ms" "core.discover";
      layer "ric.baseline_ms" "ric.baseline";
      layer "verify.dedup_ms" "verify.dedup";
      layer "render.discover_ms" "render.discover";
      let roots = List.filter (fun s -> s.Trace.name = "discover.op") spans in
      let unattributed = List.map (Trace.self_ms spans) roots in
      Report.median_metric "discover.unattributed_ms" "ms" unattributed;
      let traced_passes = float_of_int (max 1 ((!pass_no + 1) / 2)) in
      let per_pass r = float_of_int !r /. traced_passes in
      Report.metric "core.candidates" "count" (per_pass candidates);
      Report.metric "core.approximate" "count" (per_pass approximate);
      Report.metric "ric.candidates" "count" (per_pass ric_candidates);
      Report.metric "verify.kept_ratio" "ratio"
        (float_of_int !dedup_kept /. float_of_int (max 1 !dedup_in));
      Report.metric "render.discover_bytes" "bytes" (per_pass rendered_bytes);
      Report.metric "discover.trace_overhead_ms" "ms"
        (Stats.median !traced -. Stats.median !untraced)
    end;
    Report.metric "rss.discover_mb" "MB" (Report.peak_rss_mb "self")
  in
  { Report.planned_ms = window; slack_ms = (fun () -> infinity); step; pause = ignore; finished; finish }
