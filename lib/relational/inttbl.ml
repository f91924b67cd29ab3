(* Open addressing with linear probing over two flat int arrays, kept
   at most half full; [min_int], which no interned code or null label
   takes, marks an empty slot. *)

type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

let empty = min_int

let create n =
  let c = ref 16 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  { keys = Array.make !c empty; vals = Array.make !c 0; size = 0 }

let length t = t.size

(* the slot holding [k], or the empty slot where it belongs *)
let slot t k =
  let mask = Array.length t.keys - 1 in
  let i = ref (Colstore.spread k land mask) in
  while
    let x = Array.unsafe_get t.keys !i in
    x <> empty && x <> k
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k default =
  if t.size = 0 then default
  else
    let i = slot t k in
    if Array.unsafe_get t.keys i = empty then default
    else Array.unsafe_get t.vals i

let rec replace t k v =
  let i = slot t k in
  if t.keys.(i) <> empty then t.vals.(i) <- v
  else if (t.size + 1) * 2 > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) empty;
    t.vals <- Array.make (2 * Array.length keys) 0;
    t.size <- 0;
    Array.iteri (fun j x -> if x <> empty then replace t x vals.(j)) keys;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end
