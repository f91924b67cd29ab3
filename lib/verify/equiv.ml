module Value = Smg_relational.Value
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom

(* A homomorphism between instances decomposes: constants map to
   themselves, so a fact without nulls must occur verbatim in the
   target, and facts connected through shared nulls must embed jointly —
   but two facts sharing no null embed independently. Checking each
   null-connected component separately turns one intractable search over
   hundreds of atoms into many small ones; chase outputs rarely have
   components beyond a handful of facts. *)

type fact = { f_pred : string; f_tup : Value.t array }

let facts_of inst =
  List.concat_map
    (fun name ->
      match Instance.relation inst name with
      | None -> []
      | Some r ->
          List.map (fun tup -> { f_pred = name; f_tup = tup }) r.Instance.tuples)
    (Instance.names inst)

(* ground facts are looked up structurally: interning them would grow
   the global pool with every instance compared *)
let fact_key f = (f.f_pred, f.f_tup)

let nulls_of_fact f =
  Array.to_list f.f_tup
  |> List.filter_map (function Value.VNull k -> Some k | _ -> None)

let atom_of_fact f =
  Atom.atom f.f_pred
    (List.map
       (fun v ->
         match v with
         | Value.VNull k -> Atom.Var (Printf.sprintf "?n%d" k)
         | v -> Atom.Cst v)
       (Array.to_list f.f_tup))

(* union-find over null labels *)
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

(* Facts of [inst] grouped by null-connected component, plus the ground
   facts (no nulls at all). *)
let components inst =
  let facts = facts_of inst in
  let parent = Hashtbl.create 64 in
  List.iter
    (fun f ->
      match nulls_of_fact f with
      | [] -> ()
      | k0 :: rest -> List.iter (fun k -> uf_union parent k0 k) rest)
    facts;
  let ground = ref [] in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match nulls_of_fact f with
      | [] -> ground := f :: !ground
      | k0 :: _ ->
          let root = uf_find parent k0 in
          Hashtbl.replace groups root
            (f :: Option.value ~default:[] (Hashtbl.find_opt groups root)))
    facts;
  (!ground, Hashtbl.fold (fun _ fs acc -> fs :: acc) groups [])

let hom_into a b =
  let ground, comps = components a in
  let b_keys = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace b_keys (fact_key f) ()) (facts_of b);
  List.for_all (fun f -> Hashtbl.mem b_keys (fact_key f)) ground
  &&
  let rigid = List.map atom_of_fact (facts_of b) in
  List.for_all
    (fun comp -> Hom.holds ~rigid (List.map atom_of_fact comp))
    comps

let equivalent a b = hom_into a b && hom_into b a
