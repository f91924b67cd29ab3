module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover
module Baseline = Smg_ric.Baseline

type method_kind = Semantic | Ric_based

type case_result = {
  cr_case : string;
  cr_method : method_kind;
  cr_outcome : Measures.outcome;
  cr_seconds : float;
}

type domain_result = {
  dr_scenario : Scenario.t;
  dr_cases : case_result list;
  dr_sem_precision : float;
  dr_sem_recall : float;
  dr_ric_precision : float;
  dr_ric_recall : float;
  dr_sem_seconds : float;
  dr_ric_seconds : float;
}

(* The semantic method eliminates incompatible candidates and
   *downgrades* dubious ones (Example 1.3); mappings whose score falls
   far below the best tier would not be presented first. We count the
   candidates within a fixed presentation window of the best score,
   with strict partOf filtering on (the paper's "eliminated"
   reading). *)
let presentation_window = 2.0

let semantic_options =
  { Discover.default_options with strict_partof = true }

let run_method kind (scen : Scenario.t) (case : Scenario.case) =
  match kind with
  | Semantic ->
      let all =
        Discover.discover ~options:semantic_options
          ~source:scen.Scenario.source ~target:scen.Scenario.target
          ~corrs:case.Scenario.corrs ()
      in
      (match all with
      | [] -> []
      | best :: _ ->
          List.filter
            (fun m ->
              m.Mapping.score <= best.Mapping.score +. presentation_window)
            all)
  | Ric_based ->
      Baseline.generate ~source:scen.Scenario.source.Discover.schema
        ~target:scen.Scenario.target.Discover.schema ~corrs:case.Scenario.corrs

let run_semantic_bounded ?budget ?pool (scen : Scenario.t) (case : Scenario.case)
    =
  let o =
    Discover.discover_bounded ~options:semantic_options ?budget ?pool
      ~source:scen.Scenario.source ~target:scen.Scenario.target
      ~corrs:case.Scenario.corrs ()
  in
  let kept =
    match o.Discover.o_mappings with
    | [] -> []
    | best :: _ as all ->
        List.filter
          (fun m -> m.Mapping.score <= best.Mapping.score +. presentation_window)
          all
  in
  { o with Discover.o_mappings = kept }

let run_case scen case =
  List.map
    (fun kind ->
      let generated, seconds =
        Smg_robust.Clock.time (fun () -> run_method kind scen case)
      in
      {
        cr_case = case.Scenario.case_name;
        cr_method = kind;
        cr_outcome =
          Measures.score
            ~schemas:
              ( scen.Scenario.source.Discover.schema,
                scen.Scenario.target.Discover.schema )
            ~generated ~benchmark:case.Scenario.benchmark ();
        cr_seconds = seconds;
      })
    [ Semantic; Ric_based ]

let run scen =
  let dr_cases = List.concat_map (run_case scen) scen.Scenario.cases in
  let of_kind k =
    List.filter (fun c -> c.cr_method = k) dr_cases
    |> List.map (fun c -> (c.cr_outcome.Measures.precision, c.cr_outcome.Measures.recall))
  in
  let sem_p, sem_r = Measures.average (of_kind Semantic) in
  let ric_p, ric_r = Measures.average (of_kind Ric_based) in
  let secs k =
    List.fold_left
      (fun acc c -> if c.cr_method = k then acc +. c.cr_seconds else acc)
      0. dr_cases
  in
  {
    dr_scenario = scen;
    dr_cases;
    dr_sem_precision = sem_p;
    dr_sem_recall = sem_r;
    dr_ric_precision = ric_p;
    dr_ric_recall = ric_r;
    dr_sem_seconds = secs Semantic;
    dr_ric_seconds = secs Ric_based;
  }

let run_all = List.map run

(* ---- RIC redundancy (lib/verify) ---------------------------------------- *)

type redundancy = {
  rd_ric_total : int;
  rd_ric_equivalent : int;
  rd_ric_subsumed : int;
}

let redundancy scen =
  let source = scen.Scenario.source.Discover.schema in
  let target = scen.Scenario.target.Discover.schema in
  List.fold_left
    (fun acc case ->
      let sem = run_method Semantic scen case in
      let ric = run_method Ric_based scen case in
      List.fold_left
        (fun acc r ->
          if List.exists (fun s -> Smg_verify.Mapverify.equivalent ~source ~target s r) sem
          then { acc with rd_ric_equivalent = acc.rd_ric_equivalent + 1 }
          else if
            List.exists (fun s -> Smg_verify.Mapverify.implies ~source ~target s r) sem
          then { acc with rd_ric_subsumed = acc.rd_ric_subsumed + 1 }
          else acc)
        { acc with rd_ric_total = acc.rd_ric_total + List.length ric }
        ric)
    { rd_ric_total = 0; rd_ric_equivalent = 0; rd_ric_subsumed = 0 }
    scen.Scenario.cases

let pp_redundancy ppf rows =
  Fmt.pf ppf
    "@[<v>RIC-baseline redundancy vs the semantic candidates (lib/verify)@,%s@,"
    (String.make 64 '-');
  Fmt.pf ppf "%-10s %6s %12s %10s@," "Domain" "#RIC" "equivalent" "subsumed";
  List.iter
    (fun ((scen : Scenario.t), r) ->
      Fmt.pf ppf "%-10s %6d %12d %10d@," scen.Scenario.scen_name
        r.rd_ric_total r.rd_ric_equivalent r.rd_ric_subsumed)
    rows;
  let tot f = List.fold_left (fun acc (_, r) -> acc + f r) 0 rows in
  Fmt.pf ppf "%-10s %6d %12d %10d@,@]" "ALL"
    (tot (fun r -> r.rd_ric_total))
    (tot (fun r -> r.rd_ric_equivalent))
    (tot (fun r -> r.rd_ric_subsumed))

(* ---- rendering ---------------------------------------------------------- *)

let pp_table1 ppf results =
  Fmt.pf ppf "@[<v>%-10s %8s  %-18s %7s %9s %9s@,"
    "Schema" "#tables" "associated CM" "#nodes" "#mappings" "time(s)";
  Fmt.pf ppf "%s@," (String.make 68 '-');
  List.iter
    (fun r ->
      let s = r.dr_scenario in
      let src_tables =
        List.length s.Scenario.source.Discover.schema.Smg_relational.Schema.tables
      in
      let tgt_tables =
        List.length s.Scenario.target.Discover.schema.Smg_relational.Schema.tables
      in
      let src_nodes =
        Scenario.n_class_nodes
          (Smg_cm.Cm_graph.cm s.Scenario.source.Discover.cmg)
      in
      let tgt_nodes =
        Scenario.n_class_nodes
          (Smg_cm.Cm_graph.cm s.Scenario.target.Discover.cmg)
      in
      Fmt.pf ppf "%-10s %8d  %-18s %7d %9d %9.3f@," s.Scenario.source_label
        src_tables s.Scenario.source_cm_label src_nodes
        (List.length s.Scenario.cases)
        r.dr_sem_seconds;
      Fmt.pf ppf "%-10s %8d  %-18s %7d %9s %9s@," s.Scenario.target_label
        tgt_tables s.Scenario.target_cm_label tgt_nodes "" "")
    results;
  Fmt.pf ppf "@]"

let bar width v =
  let k = int_of_float (v *. float_of_int width +. 0.5) in
  String.make k '#' ^ String.make (width - k) ' '

let pp_measure ~title ~get_sem ~get_ric ppf results =
  Fmt.pf ppf "@[<v>%s@,%s@," title (String.make 64 '-');
  Fmt.pf ppf "%-10s %-28s %-28s@," "Domain" "semantic" "RIC-based";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %s %4.2f   %s %4.2f@,"
        r.dr_scenario.Scenario.scen_name
        (bar 20 (get_sem r))
        (get_sem r)
        (bar 20 (get_ric r))
        (get_ric r))
    results;
  let avg get =
    match results with
    | [] -> 0.
    | _ ->
        List.fold_left (fun acc r -> acc +. get r) 0. results
        /. float_of_int (List.length results)
  in
  Fmt.pf ppf "%-10s %s %4.2f   %s %4.2f@,@]" "ALL"
    (bar 20 (avg get_sem)) (avg get_sem)
    (bar 20 (avg get_ric)) (avg get_ric)

let pp_fig6 ppf results =
  pp_measure ~title:"Figure 6: average precision"
    ~get_sem:(fun r -> r.dr_sem_precision)
    ~get_ric:(fun r -> r.dr_ric_precision)
    ppf results

let pp_fig7 ppf results =
  pp_measure ~title:"Figure 7: average recall"
    ~get_sem:(fun r -> r.dr_sem_recall)
    ~get_ric:(fun r -> r.dr_ric_recall)
    ppf results

let pp_cases ppf r =
  Fmt.pf ppf "@[<v>%s cases:@," r.dr_scenario.Scenario.scen_name;
  List.iter
    (fun c ->
      let m = match c.cr_method with Semantic -> "sem" | Ric_based -> "ric" in
      Fmt.pf ppf "  %-28s %-4s |P|=%2d hits=%d P=%4.2f R=%4.2f (%.3fs)@,"
        c.cr_case m c.cr_outcome.Measures.n_generated
        c.cr_outcome.Measures.n_hits c.cr_outcome.Measures.precision
        c.cr_outcome.Measures.recall c.cr_seconds)
    r.dr_cases;
  Fmt.pf ppf "@]"
