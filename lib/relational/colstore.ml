(* Flat columnar tuple storage over interned int codes, hash-partitioned
   into shards.

   One relation = one row-major int arena (insertion-ordered, append
   only) + one liveness byte per row + [nshards] disjoint membership
   tables. A tuple's owning shard is [hash mod nshards], so concurrent
   writers configured around disjoint shard sets never contend on a
   membership table, and dedup probes touch exactly one shard. The arena
   itself is shared: iteration order (and therefore everything downstream
   that fires triggers in scan order) is independent of the shard count.

   Membership tables are open-addressing with linear probing; slots hold
   [row + 1], [0] for empty, [-1] for a tombstone. Column-subset indexes
   are chained hash buckets over flat int arrays: a bucket-head array
   (the newest row of each bucket, [-1] for none) plus a per-row [next]
   link to the next older row of the same bucket. A bucket mixes every
   key that lands in it, so callers must re-verify equality positions
   on each candidate (they need the liveness check anyway). *)

type shard = {
  mutable sh_slots : int array;
  mutable sh_live : int;
  mutable sh_used : int; (* live + tombstones, drives resize *)
  mutable sh_rot : int;  (* rows removed via this shard, never reset *)
}

type index = {
  x_cols : int array;
  mutable x_head : int array; (* bucket -> newest linked row, or -1 *)
  mutable x_next : int array; (* row -> next older row in its bucket, or -1 *)
  mutable x_linked : int; (* rows linked since the last relink, dead or not *)
}

type t = {
  cs_arity : int;
  cs_nshards : int;
  mutable cs_data : int array;
  mutable cs_rows : int; (* rows ever appended, live or dead *)
  mutable cs_cap : int;
  mutable cs_live : Bytes.t;
  cs_shards : shard array;
  mutable cs_count : int; (* live rows *)
  mutable cs_dead : int;
  mutable cs_indexes : index list;
  mutable cs_ix_dead : int; (* removals since last index rebuild *)
  cs_tracked : bool;
}

let fnv_offset = 0x1435cb3777f7f
let fnv_prime = 0x100000001b3

let hash_cells (cells : int array) =
  let h = ref fnv_offset in
  for i = 0 to Array.length cells - 1 do
    h := (!h lxor Array.unsafe_get cells i) * fnv_prime
  done;
  !h land max_int

let hash_row t row =
  let base = row * t.cs_arity in
  let h = ref fnv_offset in
  for i = 0 to t.cs_arity - 1 do
    h := (!h lxor Array.unsafe_get t.cs_data (base + i)) * fnv_prime
  done;
  !h land max_int

(* hash of a column subset of a row, in [cols] order — must agree with
   [hash_cells] applied to the extracted cells *)
let hash_row_cols t row (cols : int array) =
  let base = row * t.cs_arity in
  let h = ref fnv_offset in
  for i = 0 to Array.length cols - 1 do
    h :=
      (!h lxor Array.unsafe_get t.cs_data (base + Array.unsafe_get cols i))
      * fnv_prime
  done;
  !h land max_int

(* The FNV product's low bits depend only on the low bits of the cells,
   and interned codes are dense small ints: fold the high bits down
   before a hash is masked to a power-of-two table. *)
let spread h =
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let next_pow2 n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let create ?(tracked = true) ~shards ~arity hint =
  let shards = max 1 shards in
  let cap = max 16 hint in
  let per_shard = next_pow2 (max 16 (2 * (hint / shards + 1))) in
  {
    cs_arity = arity;
    cs_nshards = shards;
    cs_data = Array.make (cap * max 1 arity) 0;
    cs_rows = 0;
    cs_cap = cap;
    cs_live = Bytes.make cap '\001';
    cs_shards =
      Array.init shards (fun _ ->
          {
            sh_slots = Array.make per_shard 0;
            sh_live = 0;
            sh_used = 0;
            sh_rot = 0;
          });
    cs_count = 0;
    cs_dead = 0;
    cs_indexes = [];
    cs_ix_dead = 0;
    cs_tracked = tracked;
  }

let arity t = t.cs_arity
let nshards t = t.cs_nshards
let count t = t.cs_count
let dead t = t.cs_dead
let rows t = t.cs_rows
let tracked t = t.cs_tracked
let data t = t.cs_data
let is_live t row = Bytes.unsafe_get t.cs_live row <> '\000'
let get t row j = t.cs_data.((row * t.cs_arity) + j)

let row_cells t row =
  Array.sub t.cs_data (row * t.cs_arity) t.cs_arity

let shard_live t = Array.map (fun s -> s.sh_live) t.cs_shards
let shard_rot t = Array.map (fun s -> s.sh_rot) t.cs_shards

(* ---- arena -------------------------------------------------------------- *)

let grow t =
  let ncap = 2 * t.cs_cap in
  let nd = Array.make (ncap * max 1 t.cs_arity) 0 in
  Array.blit t.cs_data 0 nd 0 (t.cs_rows * t.cs_arity);
  t.cs_data <- nd;
  let nl = Bytes.make ncap '\001' in
  Bytes.blit t.cs_live 0 nl 0 t.cs_rows;
  t.cs_live <- nl;
  t.cs_cap <- ncap;
  List.iter
    (fun ix ->
      let nn = Array.make ncap (-1) in
      Array.blit ix.x_next 0 nn 0 t.cs_rows;
      ix.x_next <- nn)
    t.cs_indexes

(* ---- column-subset indexes: linking ------------------------------------- *)

let link t ix row =
  let b =
    spread (hash_row_cols t row ix.x_cols) land (Array.length ix.x_head - 1)
  in
  Array.unsafe_set ix.x_next row (Array.unsafe_get ix.x_head b);
  Array.unsafe_set ix.x_head b row;
  ix.x_linked <- ix.x_linked + 1

(* Empty [ix]'s buckets and link the live rows in arena order, so each
   chain runs newest first. Heads at most half loaded by live rows. *)
let relink t ix nbuckets =
  ix.x_head <- Array.make nbuckets (-1);
  ix.x_linked <- 0;
  for row = 0 to t.cs_rows - 1 do
    if Bytes.unsafe_get t.cs_live row <> '\000' then link t ix row
  done

let buckets_for live = next_pow2 (max 16 (2 * live))

(* link [row] into every index *)
let rec link_all t row = function
  | [] -> ()
  | ix :: rest ->
      link t ix row;
      (* past half load: relink the live rows (dropping tombstones)
         into a table that holds at least twice the live count *)
      let nb = Array.length ix.x_head in
      if ix.x_linked * 2 > nb then
        relink t ix
          (if t.cs_count * 4 > nb then buckets_for (2 * t.cs_count) else nb);
      link_all t row rest

let append_row t cells =
  if t.cs_rows >= t.cs_cap then grow t;
  let row = t.cs_rows in
  Array.blit cells 0 t.cs_data (row * t.cs_arity) t.cs_arity;
  Bytes.unsafe_set t.cs_live row '\001';
  t.cs_rows <- row + 1;
  t.cs_count <- t.cs_count + 1;
  link_all t row t.cs_indexes;
  row

(* ---- membership --------------------------------------------------------- *)

let row_eq t row (cells : int array) =
  let base = row * t.cs_arity in
  let i = ref 0 in
  while
    !i < t.cs_arity
    && Array.unsafe_get t.cs_data (base + !i) = Array.unsafe_get cells !i
  do
    incr i
  done;
  !i >= t.cs_arity

let shard_of_hash t h = t.cs_shards.(h mod t.cs_nshards)

let rehash_shard t sh =
  let old = sh.sh_slots in
  let ncap =
    next_pow2 (max 16 (if sh.sh_live * 4 > Array.length old * 3 then
                         2 * Array.length old
                       else Array.length old))
  in
  sh.sh_slots <- Array.make ncap 0;
  sh.sh_used <- 0;
  let mask = ncap - 1 in
  Array.iter
    (fun slot ->
      if slot > 0 then begin
        let row = slot - 1 in
        let h = hash_row t row in
        let i = ref (spread h land mask) in
        while sh.sh_slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        sh.sh_slots.(!i) <- slot;
        sh.sh_used <- sh.sh_used + 1
      end)
    old

(* find the slot index holding [cells], or [- insertion_point - 1] *)
let shard_lookup t sh h cells =
  let mask = Array.length sh.sh_slots - 1 in
  let i = ref (spread h land mask) in
  let free = ref (-1) in
  let res = ref 0 in
  (try
     while true do
       let slot = Array.unsafe_get sh.sh_slots !i in
       if slot = 0 then begin
         res := - (if !free >= 0 then !free else !i) - 1;
         raise Exit
       end
       else if slot = -1 then begin
         if !free < 0 then free := !i
       end
       else if row_eq t (slot - 1) cells then begin
         res := !i;
         raise Exit
       end;
       i := (!i + 1) land mask
     done
   with Exit -> ());
  !res

let mem t cells =
  if not t.cs_tracked then begin
    (* untracked stores (trusted duplicate-free sources) have empty
       membership tables; fall back to a scan *)
    let rec go row =
      row < t.cs_rows
      && ((is_live t row && row_eq t row cells) || go (row + 1))
    in
    go 0
  end
  else
    let h = hash_cells cells in
    shard_lookup t (shard_of_hash t h) h cells >= 0

let find_row t cells =
  if not t.cs_tracked then invalid_arg "Colstore.find_row: untracked store";
  let h = hash_cells cells in
  let sh = shard_of_hash t h in
  let s = shard_lookup t sh h cells in
  if s >= 0 then Some (sh.sh_slots.(s) - 1) else None

let insert t cells =
  if not t.cs_tracked then invalid_arg "Colstore.insert: untracked store";
  let h = hash_cells cells in
  let sh = shard_of_hash t h in
  let s = shard_lookup t sh h cells in
  if s >= 0 then None
  else begin
    let at = -s - 1 in
    let row = append_row t cells in
    let was_free = sh.sh_slots.(at) = -1 in
    sh.sh_slots.(at) <- row + 1;
    sh.sh_live <- sh.sh_live + 1;
    if not was_free then sh.sh_used <- sh.sh_used + 1;
    if sh.sh_used * 4 > Array.length sh.sh_slots * 3 then rehash_shard t sh;
    Some row
  end

let remove t cells =
  if not t.cs_tracked then invalid_arg "Colstore.remove: untracked store";
  let h = hash_cells cells in
  let sh = shard_of_hash t h in
  let s = shard_lookup t sh h cells in
  if s < 0 then None
  else begin
    let row = sh.sh_slots.(s) - 1 in
    sh.sh_slots.(s) <- -1;
    sh.sh_live <- sh.sh_live - 1;
    sh.sh_rot <- sh.sh_rot + 1;
    Bytes.unsafe_set t.cs_live row '\000';
    t.cs_count <- t.cs_count - 1;
    t.cs_dead <- t.cs_dead + 1;
    if t.cs_indexes <> [] then t.cs_ix_dead <- t.cs_ix_dead + 1;
    Some row
  end

(* adopt a pre-coded flat row-major arena (untracked bulk load: the
   rows are trusted duplicate-free, so no membership build) *)
let of_flat ~shards ~arity ~rows:n data =
  let shards = max 1 shards in
  let ar = max 1 arity in
  let cap = max 16 n in
  let data =
    if Array.length data >= cap * ar then data
    else begin
      let nd = Array.make (cap * ar) 0 in
      Array.blit data 0 nd 0 (n * ar);
      nd
    end
  in
  {
    cs_arity = arity;
    cs_nshards = shards;
    cs_data = data;
    cs_rows = n;
    cs_cap = cap;
    cs_live = Bytes.make cap '\001';
    cs_shards =
      Array.init shards (fun _ ->
          { sh_slots = Array.make 16 0; sh_live = 0; sh_used = 0; sh_rot = 0 });
    cs_count = n;
    cs_dead = 0;
    cs_indexes = [];
    cs_ix_dead = 0;
    cs_tracked = false;
  }

let of_rows ?(tracked = true) ~shards ~arity rows =
  let t = create ~tracked ~shards ~arity (List.length rows) in
  List.iter
    (fun cells ->
      if tracked then ignore (insert t cells)
      else ignore (append_row t cells))
    rows;
  t

(* ---- iteration ---------------------------------------------------------- *)

let iter_live t f =
  for row = 0 to t.cs_rows - 1 do
    if Bytes.unsafe_get t.cs_live row <> '\000' then f row
  done

let fold_live t f acc =
  let acc = ref acc in
  for row = 0 to t.cs_rows - 1 do
    if Bytes.unsafe_get t.cs_live row <> '\000' then acc := f !acc row
  done;
  !acc

(* ---- column-subset indexes ---------------------------------------------- *)

(* sized from the live count, not from the rows linked so far (0 at
   this point): a bulk-loaded store must not start at 16 buckets *)
let build_index t cols =
  let ix =
    {
      x_cols = cols;
      x_head = [||];
      x_next = Array.make t.cs_cap (-1);
      x_linked = 0;
    }
  in
  relink t ix (buckets_for t.cs_count);
  ix

let same_cols (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do
    incr i
  done;
  !i = Array.length a

(* never linked, one empty bucket: stands for "no index built" without
   an option per probe *)
let no_index = { x_cols = [||]; x_head = [| -1 |]; x_next = [||]; x_linked = 0 }

let rec find_in cols = function
  | [] -> no_index
  | ix :: rest -> if same_cols ix.x_cols cols then ix else find_in cols rest

let find_index t cols = find_in cols t.cs_indexes

let ensure_index t cols =
  let ix = find_index t cols in
  if ix != no_index then ix
  else begin
    let ix = build_index t cols in
    t.cs_indexes <- ix :: t.cs_indexes;
    ix
  end

let first ix (cells : int array) =
  Array.unsafe_get ix.x_head
    (spread (hash_cells cells) land (Array.length ix.x_head - 1))

let next ix row = Array.unsafe_get ix.x_next row

let has_indexes t = t.cs_indexes <> []
let index_rot t = t.cs_ix_dead

let prune_indexes t =
  List.iter (fun ix -> relink t ix (buckets_for t.cs_count)) t.cs_indexes;
  t.cs_ix_dead <- 0

(* amortized: rebuild index buckets once tombstones make up half of
   them *)
let maybe_prune t =
  if t.cs_ix_dead > 64 && t.cs_ix_dead * 2 > max 1 t.cs_count then
    prune_indexes t

let drop_indexes t =
  t.cs_indexes <- [];
  t.cs_ix_dead <- 0
