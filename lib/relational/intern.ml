(* Global value interning: every constant is mapped to a small
   non-negative integer code, and labelled nulls occupy the disjoint
   negative range, so the exchange engine's hot paths (membership,
   hash-join probes, key egds) compare and hash machine integers
   instead of boxed values and printed strings.

   The pool is append-only and process-global: a code, once assigned,
   never changes meaning, so codes can be cached in compiled artifacts
   and compared across engine instances. Writers (interning a new
   constant) serialize on a mutex; readers ([value], [find]) are
   lock-free — the chunked directory never moves a published element,
   the directory pointer and the published size are [Atomic], and every
   chunk cell is written before the size that covers it is released. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

(* constant code -> value, chunked so growth never relocates cells *)
let directory : Value.t array array Atomic.t = Atomic.make [||]
let published : int Atomic.t = Atomic.make 0

(* value -> code, writers only. Equality is [compare = 0], as the
   polymorphic table had it: [Float.equal] keeps one code for every NaN
   and one for 0.0 and -0.0, and the float hash ([Hashtbl.hash]
   normalizes NaNs and -0.0) agrees with it. *)
module Codes = Hashtbl.Make (struct
  type t = Value.t

  let equal a b =
    match (a, b) with
    | Value.VInt x, Value.VInt y -> Int.equal x y
    | Value.VString x, Value.VString y -> String.equal x y
    | Value.VFloat x, Value.VFloat y -> Float.equal x y
    | Value.VBool x, Value.VBool y -> Bool.equal x y
    | Value.VNull x, Value.VNull y -> Int.equal x y
    | (Value.VInt _ | VString _ | VFloat _ | VBool _ | VNull _), _ -> false

  let hash = function
    | Value.VInt i -> Hashtbl.hash i
    | Value.VString s -> Hashtbl.hash s
    | Value.VFloat f -> Hashtbl.hash f
    | Value.VBool b -> Bool.to_int b
    | Value.VNull n -> Hashtbl.hash n
end)

let codes : int Codes.t = Codes.create 1024
let lock = Mutex.create ()

(* ---- null range --------------------------------------------------------- *)

(* label [n] (n >= 0) <-> code [-n - 1]: all nulls are negative, all
   constants non-negative, and both directions are O(1) arithmetic. *)
let null_code n = -n - 1
let is_null_code c = c < 0
let null_label c = -c - 1

(* ---- constants ---------------------------------------------------------- *)

let intern_locked v =
  match Codes.find_opt codes v with
  | Some c -> c
  | None ->
      let c = Atomic.get published in
      let dir = Atomic.get directory in
      let chunk = c lsr chunk_bits in
      let dir =
        if chunk < Array.length dir then dir
        else begin
          let ndir =
            Array.init
              (max 4 (2 * Array.length dir))
              (fun i ->
                if i < Array.length dir then dir.(i)
                else Array.make chunk_size (Value.VNull 0))
          in
          (* published cells live in the chunks, which are shared between
             the old and new directory: swapping the directory is safe *)
          Atomic.set directory ndir;
          ndir
        end
      in
      dir.(chunk).(c land (chunk_size - 1)) <- v;
      Atomic.set published (c + 1);
      Codes.replace codes v c;
      c

let code v =
  match v with
  | Value.VNull n -> null_code n
  | _ ->
      Mutex.lock lock;
      let c = intern_locked v in
      Mutex.unlock lock;
      c

let find v =
  match v with
  | Value.VNull n -> Some (null_code n)
  | _ ->
      Mutex.lock lock;
      let c = Codes.find_opt codes v in
      Mutex.unlock lock;
      c

let value c =
  if c < 0 then Value.VNull (null_label c)
  else if c >= Atomic.get published then
    invalid_arg (Printf.sprintf "Intern.value: unknown code %d" c)
  else (Atomic.get directory).(c lsr chunk_bits).(c land (chunk_size - 1))

(* ---- tuples ------------------------------------------------------------- *)

let code_tuple tup =
  let n = Array.length tup in
  let out = Array.make n 0 in
  Mutex.lock lock;
  for i = 0 to n - 1 do
    out.(i) <-
      (match tup.(i) with
      | Value.VNull k -> null_code k
      | v -> intern_locked v)
  done;
  Mutex.unlock lock;
  out

(* Bulk row interning for store construction: one lock acquisition for
   the whole relation, codes written straight into a fresh row-major
   arena of [rows * arity] cells (capacity at least 16 rows) — the
   shape {!Colstore.of_flat} adopts without copying. *)
let code_rows ~arity tuples =
  let arity = max 1 arity in
  let n = List.length tuples in
  let data = Array.make (max 16 n * arity) 0 in
  Mutex.lock lock;
  let off = ref 0 in
  List.iter
    (fun tup ->
      let m = min arity (Array.length tup) in
      for i = 0 to m - 1 do
        data.(!off + i) <-
          (match tup.(i) with
          | Value.VNull k -> null_code k
          | v -> intern_locked v)
      done;
      off := !off + arity)
    tuples;
  Mutex.unlock lock;
  (n, data)

let find_tuple tup =
  let n = Array.length tup in
  let out = Array.make n 0 in
  Mutex.lock lock;
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       out.(i) <-
         (match tup.(i) with
         | Value.VNull k -> null_code k
         | v -> (
             match Codes.find_opt codes v with
             | Some c -> c
             | None ->
                 ok := false;
                 raise Exit))
     done
   with Exit -> ());
  Mutex.unlock lock;
  if !ok then Some out else None

let decode_tuple tup = Array.map value tup

let pool_size () = Atomic.get published
