module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Dependency = Smg_cq.Dependency
module Budget = Smg_robust.Budget
module Clock = Smg_robust.Clock
module Engine = Smg_exchange.Engine
module Equiv = Smg_verify.Equiv

type hop = {
  h_source : Schema.t;
  h_target : Schema.t;
  h_tgds : Dependency.tgd list;
}

type error = Exhausted of Budget.reason | Failed of string

let strip_keys (s : Schema.t) =
  Schema.make ~name:s.Schema.schema_name
    (List.map (fun tb -> { tb with Schema.key = [] }) s.Schema.tables)
    s.Schema.rics

let check hops =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  let rec go = function
    | h1 :: (h2 :: _ as rest) ->
        let mid_tables =
          List.map (fun tb -> tb.Schema.tbl_name) h1.h_target.Schema.tables
        in
        List.iter
          (fun (t : Dependency.tgd) ->
            List.iter
              (fun (a : Smg_cq.Atom.t) ->
                if not (List.mem a.Smg_cq.Atom.pred mid_tables) then
                  warn
                    "tgd %s reads %s, which the previous hop's target (%s) \
                     does not provide"
                    t.Dependency.tgd_name a.Smg_cq.Atom.pred
                    h1.h_target.Schema.schema_name)
              t.Dependency.lhs)
          h2.h_tgds;
        go rest
    | _ -> ()
  in
  go hops;
  List.rev !warnings

(* Composition is defined over the tgds alone (egd-free intermediate
   semantics): mid-pipeline key merges would be composition under
   target constraints, which the FKPT algorithm does not model. The
   sequential leg therefore strips keys from every intermediate
   schema; the final target's keys apply to both legs. *)
let compose_chain ?budget ?max_clauses hops =
  match hops with
  | [] | [ _ ] -> invalid_arg "compose_chain: need at least two hops"
  | h1 :: rest ->
      let extra_dropped = ref 0 in
      let extra_inexact = ref false in
      let extra_budget = ref None in
      let note (r : Compose.result) =
        extra_dropped := !extra_dropped + r.Compose.c_dropped;
        if not r.Compose.c_exact then extra_inexact := true;
        match r.Compose.c_budget with
        | Some _ as s when !extra_budget = None -> extra_budget := s
        | _ -> ()
      in
      let rec go m12 = function
        | [] -> assert false
        | [ h ] ->
            let r = Compose.compose ?budget ?max_clauses ~m12 ~m23:h.h_tgds () in
            {
              r with
              Compose.c_exact = r.Compose.c_exact && not !extra_inexact;
              c_dropped = r.Compose.c_dropped + !extra_dropped;
              c_budget =
                (match r.Compose.c_budget with
                | Some _ as s -> s
                | None -> !extra_budget);
            }
        | h :: tl ->
            let r = Compose.compose ?budget ?max_clauses ~m12 ~m23:h.h_tgds () in
            note r;
            go r.Compose.c_exec tl
      in
      go h1.h_tgds rest

let sequential ?budget ?pool ?(laconic = false) hops inst =
  let rec go inst = function
    | [] -> Ok inst
    | h :: tl ->
        let target = if tl = [] then h.h_target else strip_keys h.h_target in
        (match
           Engine.run_bounded ?budget ?pool ~laconic ~source:h.h_source ~target
             ~mappings:h.h_tgds inst
         with
        | Engine.Complete rep -> go rep.Engine.r_target tl
        | Engine.Budget_exhausted (r, _) -> Error (Exhausted r)
        | Engine.Failed msg -> Error (Failed msg))
  in
  go inst hops

let one_shot ?budget ?pool ?(laconic = false) ~source ~target ~exec inst =
  match
    Engine.run_bounded ?budget ?pool ~laconic ~source ~target ~mappings:exec
      inst
  with
  | Engine.Complete rep -> Ok rep.Engine.r_target
  | Engine.Budget_exhausted (r, _) -> Error (Exhausted r)
  | Engine.Failed msg -> Error (Failed msg)

type verdict = {
  vd_equiv : bool;
  vd_seq_seconds : float;
  vd_comp_seconds : float;
  vd_seq_tuples : int;
  vd_comp_tuples : int;
}

let verify ?budget ?pool ?laconic hops ~exec inst =
  match hops with
  | [] -> invalid_arg "verify: no hops"
  | first :: _ ->
      let last = List.nth hops (List.length hops - 1) in
      let seq, seq_s =
        Clock.time (fun () -> sequential ?budget ?pool ?laconic hops inst)
      in
      (match seq with
      | Error e -> Error e
      | Ok seq ->
          let comp, comp_s =
            Clock.time (fun () ->
                one_shot ?budget ?pool ?laconic ~source:first.h_source
                  ~target:last.h_target ~exec inst)
          in
          (match comp with
          | Error e -> Error e
          | Ok comp ->
              Ok
                {
                  vd_equiv = Equiv.equivalent seq comp;
                  vd_seq_seconds = seq_s;
                  vd_comp_seconds = comp_s;
                  vd_seq_tuples = Instance.total_tuples seq;
                  vd_comp_tuples = Instance.total_tuples comp;
                }))

let pp_verdict ppf v =
  Fmt.pf ppf
    "@[<v>sequential: %d tuples in %.3fs@,composed:   %d tuples in %.3fs@,\
     hom-equivalent: %b@]"
    v.vd_seq_tuples v.vd_seq_seconds v.vd_comp_tuples v.vd_comp_seconds
    v.vd_equiv
