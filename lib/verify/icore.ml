module Value = Smg_relational.Value
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Chase = Smg_cq.Chase
module Hom = Smg_cq.Hom

let null_var k = Printf.sprintf "?n%d" k

let term_of_value = function
  | Value.VNull k -> Atom.Var (null_var k)
  | v -> Atom.Cst v

let fold_relations inst f acc =
  List.fold_left
    (fun acc name ->
      match Instance.relation inst name with
      | None -> acc
      | Some r -> f acc name r)
    acc (Instance.names inst)

let facts inst =
  fold_relations inst
    (fun acc name (r : Instance.relation) ->
      List.fold_left (fun acc tup -> (name, tup) :: acc) acc r.Instance.tuples)
    []
  |> Array.of_list

let flexible (name, tup) =
  Atom.atom name (List.map term_of_value (Array.to_list tup))

let frozen (name, tup) = Atom.atom name (List.map Atom.c (Array.to_list tup))

let apply_endomorphism inst subst =
  fold_relations inst
    (fun acc name (r : Instance.relation) ->
      List.fold_left
        (fun acc tup ->
          let tup' =
            Array.map
              (fun v ->
                match v with
                | Value.VNull k -> (
                    match Atom.Subst.find subst (null_var k) with
                    | Some (Atom.Cst v') -> v'
                    | Some (Atom.Var _) | None -> v)
                | v -> v)
              tup
          in
          Instance.add_tuple acc name ~header:r.Instance.header tup')
        acc r.Instance.tuples)
    Instance.empty

(* ---- fold search, restricted to null-connected components --------------
   A retraction avoiding null [n] exists on the whole instance iff one
   exists on [n]'s component — the facts reachable from [n] through
   shared nulls: facts of other components never mention [n], so the
   identity extends any component retraction, and conversely any full
   retraction restricts to one. Searching only the component, against
   one index of the frozen instance per pass state, replaces a
   whole-instance search that rescanned and re-matched every fact for
   every null — the quadratic hot spot of core computation. *)

let rec uf_find parent k =
  match Hashtbl.find_opt parent k with
  | None -> k
  | Some p ->
      let r = uf_find parent p in
      if r <> p then Hashtbl.replace parent k r;
      r

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then Hashtbl.replace parent ra rb

let nulls_of_tuple tup =
  Array.fold_left
    (fun acc v -> match v with Value.VNull k -> k :: acc | _ -> acc)
    [] tup

type components = { root : int -> int; members : (int, int list) Hashtbl.t }

let components tups =
  let parent = Hashtbl.create 64 in
  Array.iter
    (fun tup ->
      match nulls_of_tuple tup with
      | [] -> ()
      | k0 :: rest -> List.iter (uf_union parent k0) rest)
    tups;
  let members = Hashtbl.create 16 in
  Array.iteri
    (fun i tup ->
      match nulls_of_tuple tup with
      | [] -> ()
      | k :: _ ->
          let root = uf_find parent k in
          Hashtbl.replace members root
            (i :: Option.value ~default:[] (Hashtbl.find_opt members root)))
    tups;
  { root = uf_find parent; members }

type pass_state = {
  ps_facts : (string * Value.t array) array;
  ps_frozen : Hom.index;  (* every value (nulls included) as a constant *)
  ps_comps : components;
}

let build_state inst =
  let facts = facts inst in
  {
    ps_facts = facts;
    ps_frozen = Hom.index (Array.fold_left (fun acc f -> frozen f :: acc) [] facts);
    ps_comps = components (Array.map snd facts);
  }

let nulls st =
  Array.fold_left (fun acc (_, tup) -> nulls_of_tuple tup @ acc) [] st.ps_facts
  |> List.sort_uniq compare

(* Try to retract null [n] away: a homomorphism of [n]'s component into
   the frozen instance that maps no null onto [n] — so its image avoids
   every fact mentioning [n]. *)
let try_fold st inst n =
  match Hashtbl.find_opt st.ps_comps.members (st.ps_comps.root n) with
  | None -> None (* already folded away *)
  | Some comp_ids ->
      let flex = List.map (fun i -> flexible st.ps_facts.(i)) comp_ids in
      Option.map (apply_endomorphism inst)
        (Hom.find ~avoid:(Atom.Cst (Value.VNull n)) st.ps_frozen flex)

(* One pass tries every null of the instance once, folding as it goes
   (nulls eliminated by an earlier fold are skipped); a fold can enable
   further folds, so passes repeat until one changes nothing. *)
let core inst =
  let rec pass inst =
    let st0 = build_state inst in
    let rec attempt inst st changed = function
      | [] -> (inst, changed)
      | n :: rest -> (
          match try_fold st inst n with
          | None -> attempt inst st changed rest
          | Some inst' -> attempt inst' (build_state inst') true rest)
    in
    let inst', changed = attempt inst st0 false (nulls st0) in
    if changed then pass inst' else inst'
  in
  pass inst

let is_core inst =
  let st = build_state inst in
  List.for_all (fun n -> Option.is_none (try_fold st inst n)) (nulls st)

let of_outcome = function
  | Chase.Saturated i -> Chase.Saturated (core i)
  | Chase.Bounded i -> Chase.Bounded (core i)
  | Chase.Failed _ as f -> f
