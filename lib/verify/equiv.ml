module Value = Smg_relational.Value
module Hom = Smg_cq.Hom

(* A homomorphism between instances decomposes: constants map to
   themselves, so a fact without nulls must occur verbatim in the
   target, and facts connected through shared nulls must embed jointly —
   but two facts sharing no null embed independently. Checking each
   null-connected component separately turns one intractable search over
   hundreds of atoms into many small ones; chase outputs rarely have
   components beyond a handful of facts. The target is indexed once for
   all of them. *)

let hom_into a b =
  let a_facts = Icore.facts a and b_facts = Icore.facts b in
  (* ground facts are looked up structurally: interning them would grow
     the global pool with every instance compared *)
  let b_keys = Hashtbl.create 256 in
  Array.iter (fun f -> Hashtbl.replace b_keys f ()) b_facts;
  Array.for_all
    (fun ((_, tup) as f) -> Array.exists Value.is_null tup || Hashtbl.mem b_keys f)
    a_facts
  &&
  let rigid = Hom.index (Array.to_list (Array.map Icore.flexible b_facts)) in
  let comps = Icore.components (Array.map snd a_facts) in
  Hashtbl.fold
    (fun _ ids ok ->
      ok && Hom.holds rigid (List.map (fun i -> Icore.flexible a_facts.(i)) ids))
    comps.Icore.members true

let equivalent a b = hom_into a b && hom_into b a
