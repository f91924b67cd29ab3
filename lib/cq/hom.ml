module Subst = Atom.Subst

type index = {
  facts : Atom.t list;
  small : bool;
  by_pred : (string, Atom.term list list) Hashtbl.t Lazy.t;
}

(* A rigid side this short is scanned rather than hashed: the queries of
   rewrite pruning have a handful of atoms. *)
let small_index = 32

let index rigid =
  {
    facts = rigid;
    small = List.compare_length_with rigid small_index <= 0;
    by_pred =
      lazy
        (let tbl = Hashtbl.create 64 in
         List.iter
           (fun (f : Atom.t) ->
             let cur = Option.value ~default:[] (Hashtbl.find_opt tbl f.Atom.pred) in
             Hashtbl.replace tbl f.Atom.pred (f.Atom.args :: cur))
           rigid;
         tbl);
  }

let has_pred idx pred =
  if idx.small then
    List.exists (fun (f : Atom.t) -> String.equal f.Atom.pred pred) idx.facts
  else Hashtbl.mem (Lazy.force idx.by_pred) pred

(* The facts of [pred] that [keep] accepts, in reverse order of the rigid
   list: the order the search visits images in, and so the order of its
   results. *)
let images idx pred keep =
  if idx.small then
    List.fold_left
      (fun acc (f : Atom.t) ->
        if String.equal f.Atom.pred pred && keep f.Atom.args then f.Atom.args :: acc
        else acc)
      [] idx.facts
  else
    List.filter keep
      (Option.value ~default:[] (Hashtbl.find_opt (Lazy.force idx.by_pred) pred))

type slot = K of Atom.term | V of int

(* A flexible atom compiled for one search: its arguments with variables
   numbered, and its images under [init], so that constants, repeated
   variables and pre-bound variables are checked once rather than at
   every node. *)
type patom = { slots : slot list; cands : Atom.term list list }

(* the unbound marker, compared physically *)
let unbound = Atom.Var "\000unbound"

let rec find_var x = function
  | [] -> -1
  | (y, v) :: rest -> if String.equal x y then v else find_var x rest

exception Enough

let search ?(init = Subst.empty) ?limit ?avoid idx atoms =
  (* most containment checks fail on a predicate the rigid side lacks:
     answer those before allocating anything *)
  if not (List.for_all (fun (a : Atom.t) -> has_pred idx a.Atom.pred) atoms) then []
  else
    let size =
      List.fold_left (fun n (a : Atom.t) -> n + List.length a.Atom.args) 0 atoms
    in
    let binds = Array.make size unbound in
    (* variables bound since a mark, unbound again by [undo] *)
    let trail = Array.make size 0 and top = ref 0 in
    let undo mark =
      while !top > mark do
        decr top;
        binds.(trail.(!top)) <- unbound
      done
    in
    let vars = ref [] and free = ref [] in
    let var x =
      let v = find_var x !vars in
      if v >= 0 then v
      else begin
        let v = List.length !vars in
        vars := (x, v) :: !vars;
        (match Subst.find init x with
        | Some t -> binds.(v) <- t
        | None -> free := (x, v) :: !free);
        v
      end
    in
    let bindable t =
      match avoid with Some a -> not (Atom.equal_term a t) | None -> true
    in
    (* extend the bindings so that [slots] maps onto the fact [args] *)
    let rec unify slots args =
      match (slots, args) with
      | [], [] -> true
      | K c :: slots, t :: args -> Atom.equal_term c t && unify slots args
      | V v :: slots, t :: args ->
          let b = binds.(v) in
          (if b == unbound then
             bindable t
             && begin
                  binds.(v) <- t;
                  trail.(!top) <- v;
                  incr top;
                  true
                end
           else Atom.equal_term b t)
          && unify slots args
      | _, _ -> false
    in
    let fits slots args =
      let ok = unify slots args in
      undo 0;
      ok
    in
    (* compile atom by atom, stopping at the first without an image *)
    let rec compile acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | (a : Atom.t) :: atoms -> (
          let slots =
            List.map
              (function Atom.Var x -> V (var x) | Atom.Cst _ as c -> K c)
              a.Atom.args
          in
          match images idx a.Atom.pred (fits slots) with
          | [] -> None
          | cands -> compile ({ slots; cands } :: acc) atoms)
    in
    match compile [] atoms with
    | None -> []
    | Some patoms ->
        let m = Array.length patoms in
        (* images of [p], counted in place until the count exceeds [cap] *)
        let count_upto p cap =
          let mark = !top in
          let rec go n = function
            | [] -> n
            | args :: rest ->
                let n = if unify p.slots args then n + 1 else n in
                undo mark;
                if n > cap then n else go n rest
          in
          go 0 p.cands
        in
        let unbound_count p =
          List.fold_left
            (fun n s -> match s with V v when binds.(v) == unbound -> n + 1 | _ -> n)
            0 p.slots
        in
        let expanded = Array.make m false in
        (* Fail-first: the pending atom with the fewest images, ties to the
           one with fewer unbound variables, then to the earlier one; -1
           when some pending atom has no image left. *)
        let choose pending =
          if pending = 1 then begin
            let k = ref 0 in
            while expanded.(!k) do incr k done;
            !k
          end
          else
            let best = ref (-1) and best_n = ref max_int and best_u = ref (-1) in
            let k = ref 0 in
            while !k < m && !best_n > 0 do
              if not expanded.(!k) then begin
                let p = patoms.(!k) in
                let n = count_upto p !best_n in
                if n < !best_n then begin
                  best := !k;
                  best_n := n;
                  best_u := -1
                end
                else if n = !best_n then begin
                  if !best_u < 0 then best_u := unbound_count patoms.(!best);
                  let u = unbound_count p in
                  if u < !best_u then begin
                    best := !k;
                    best_u := u
                  end
                end
              end;
              incr k
            done;
            if !best_n = 0 then -1 else !best
        in
        let found = ref [] and n_found = ref 0 in
        let rec go pending =
          if pending = 0 then begin
            found :=
              List.fold_left (fun s (x, v) -> Subst.bind s x binds.(v)) init !free
              :: !found;
            incr n_found;
            match limit with Some k when !n_found >= k -> raise Enough | _ -> ()
          end
          else
            let k = choose pending in
            if k >= 0 then begin
              let p = patoms.(k) in
              let mark = !top in
              expanded.(k) <- true;
              List.iter
                (fun args ->
                  if unify p.slots args then go (pending - 1);
                  undo mark)
                p.cands;
              expanded.(k) <- false
            end
        in
        (try go m with Enough -> ());
        List.rev !found

let all = search

let find ?init ?avoid idx atoms =
  match search ?init ~limit:1 ?avoid idx atoms with s :: _ -> Some s | [] -> None

let holds ?init idx atoms = Option.is_some (find ?init idx atoms)
