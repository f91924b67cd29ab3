(* The workloads' inputs. Everything here is a pure function of the
   workload and the seed; the program under test only ever receives the
   generated inputs. *)

module Params = Smg_generate.Params
module Gen = Smg_generate.Gen

type workload = Paper | Generated

let workload_of_string = function
  | "paper" -> Some Paper
  | "generated" -> Some Generated
  | _ -> None

(* The generated discovery pool. Its vectors are fixed rather than drawn
   from the seed: the cost of discovering a generated document depends
   on shape choices the generator makes from its own seed, and ten
   seed-drawn sets of 32 documents took 2.0–4.7 s per pass, a spread no
   bound could absorb. The grid covers ISA depth 0–3, reify 0–3, roots
   3–5, partOf 0–2 and correspondence density 0.5–1.0. *)
let pool =
  List.init 16 (fun i ->
      Params.clamp
        {
          Params.seed = 7 + i;
          isa_depth = i mod 4;
          n_roots = 3 + (i mod 3);
          reify = i / 4;
          partof = i mod 3;
          attrs_per_class = 2;
          corr_density = 0.5 +. (0.5 *. float_of_int (i mod 5) /. 4.);
          scale = 200;
        })

let generated_docs () =
  List.map (fun p -> (Params.label p, Gen.dsl (Gen.build p))) pool

let paper_docs () =
  Sys.readdir "scenarios" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".smg")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat "scenarios" f in
         (path, In_channel.with_open_bin path In_channel.input_all))

let discover_docs = function
  | Paper -> paper_docs ()
  | Generated -> generated_docs ()

(* The exchange fixture: the ISA-1 / reify-2 / density-0.5 cell of the
   generator's stress matrix, at 5×10^4 source tuples rather than 10^5:
   at 10^5 a cold op took 0.8 s and a run fitted three rotations, too few
   samples for a steady median. *)
let exchange_params ~scale =
  Params.clamp
    {
      Params.seed = 42;
      isa_depth = 1;
      n_roots = 3;
      reify = 2;
      partof = 1;
      attrs_per_class = 2;
      corr_density = 0.5;
      scale;
    }

let exchange_scale = 50_000

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Value = Smg_relational.Value
module Batch = Smg_delta.Batch

(* A seeded delta batch: [deletes] existing ground tuples, spread over
   the tables in proportion to their sizes (largest remainder), plus as
   many fresh inserts into the same tables; and its inverse, which
   restores the source. Fixing each table's share keeps the batch's cost
   from swinging with which tables the seed happens to hit: drawn
   uniformly over all tuples, 0.1% batches cost 26 ms for one seed and
   40–47 ms for four others. *)
let delta_batch st (schema : Schema.t) inst ~deletes =
  let ground name =
    Array.of_list
      (List.filter
         (Array.for_all (function Value.VNull _ -> false | _ -> true))
         (Option.get (Instance.relation inst name)).Instance.tuples)
  in
  let tables = List.map (fun n -> (n, ground n)) (List.sort String.compare (Instance.names inst)) in
  let total = List.fold_left (fun a (_, ts) -> a + Array.length ts) 0 tables in
  let exact (_, ts) = float_of_int (deletes * Array.length ts) /. float_of_int (max 1 total) in
  let floors = List.map (fun t -> (t, int_of_float (exact t))) tables in
  let spare = deletes - List.fold_left (fun a (_, k) -> a + k) 0 floors in
  let by_remainder =
    List.stable_sort
      (fun (a, ka) (b, kb) -> Float.compare (exact b -. float_of_int kb) (exact a -. float_of_int ka))
      floors
  in
  let quotas = List.mapi (fun i (t, k) -> (t, if i < spare then k + 1 else k)) by_remainder in
  let picked =
    List.concat_map
      (fun ((name, ts), k) ->
        List.filteri (fun i _ -> i < min k (Array.length ts)) (shuffle st (Array.to_list ts))
        |> List.map (fun t -> (name, t)))
      (List.sort (fun (((a : string), _), _) ((b, _), _) -> String.compare a b) quotas)
  in
  let salt = Random.State.int st 1000 * 1_000_000 in
  let fresh i name =
    let t = Schema.find_table_exn schema name in
    Array.of_list
      (List.mapi
         (fun j (c : Schema.column) ->
           let k = ((salt + i) * 16) + j in
           match c.Schema.col_type with
           | Schema.TString -> Value.VString (Printf.sprintf "zz_%d_%d" (salt + i) j)
           | Schema.TInt -> Value.VInt (2_000_000_000 + k)
           | Schema.TFloat -> Value.VFloat (1e9 +. float_of_int k)
           | Schema.TBool -> Value.VBool (i mod 2 = 0))
         t.Schema.columns)
  in
  let inserts = List.mapi (fun i (name, _) -> (name, fresh i name)) picked in
  let del = List.map (fun (n, t) -> Batch.Delete (n, t))
  and ins = List.map (fun (n, t) -> Batch.Insert (n, t)) in
  (del picked @ ins inserts, del inserts @ ins picked)
