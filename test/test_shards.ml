(* Tests for the interned columnar substrate and its shard partitioning:
   the Intern code/value round-trip, Colstore semantics at several shard
   counts, the engine's shard-invariance matrix (shards {1,3,4,7} ×
   domains {1,4}), and a differential against the chase. *)

module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Intern = Smg_relational.Intern
module Colstore = Smg_relational.Colstore
module Atom = Smg_cq.Atom
module Dependency = Smg_cq.Dependency
module Engine = Smg_exchange.Engine
module Pool = Smg_parallel.Pool
module Render = Smg_serve.Render
module Equiv = Smg_verify.Equiv

let v = Atom.v
let a = Atom.atom
let vs s = Value.VString s
let shard_counts = [ 1; 3; 4; 7 ]

(* ---- intern round-trip -------------------------------------------------- *)

(* nan is deliberately absent: the pool's structural equality cannot
   identify a value that is not equal to itself *)
let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.VInt i) int;
        map (fun s -> Value.VString s) (string_size (int_bound 12));
        map (fun i -> Value.VFloat (float_of_int i /. 8.)) int;
        map (fun b -> Value.VBool b) bool;
        map (fun n -> Value.VNull n) (int_bound 10_000);
      ])

let arb_value =
  QCheck.make gen_value ~print:(fun x -> Fmt.str "%a" Value.pp x)

let prop_intern_roundtrip =
  QCheck.Test.make ~name:"intern: value -> code -> value round-trips"
    ~count:500 arb_value (fun x ->
      let c = Intern.code x in
      Value.equal (Intern.value c) x
      && Intern.code x = c
      && Intern.find x = Some c
      && Value.is_null x = Intern.is_null_code c)

let prop_intern_rows =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair (int_range 1 4) (list_size (int_bound 40) (array_size (return 4) gen_value)))
      ~print:(fun (ar, rows) -> Fmt.str "arity %d, %d rows" ar (List.length rows))
  in
  QCheck.Test.make
    ~name:"intern: bulk code_rows agrees with per-value code" ~count:100 arb
    (fun (arity, rows) ->
      let rows = List.map (fun r -> Array.sub r 0 arity) rows in
      let n, data = Intern.code_rows ~arity rows in
      n = List.length rows
      && Array.length data >= 16 * arity
      && List.for_all2
           (fun i row ->
             Array.for_all Fun.id
               (Array.mapi
                  (fun j x -> data.((i * arity) + j) = Intern.code x)
                  row))
           (List.init n Fun.id) rows)

let test_intern_nulls () =
  Alcotest.(check int) "null code is arithmetic" (-8) (Intern.null_code 7);
  Alcotest.(check bool) "null codes are negative" true
    (Intern.is_null_code (Intern.code (Value.VNull 3)));
  Alcotest.(check int) "label recovered" 3
    (Intern.null_label (Intern.code (Value.VNull 3)));
  let tup = [| vs "a"; Value.VNull 5; Value.VInt 9 |] in
  Alcotest.(check bool) "tuple round-trips" true
    (Array.for_all2 Value.equal (Intern.decode_tuple (Intern.code_tuple tup)) tup)

(* Which constants share a code: equal under [compare], so every NaN
   codes alike (whatever its bits) and so do 0.0 and -0.0, while
   values of different constructors never share one. *)
let test_intern_code_classes () =
  let code = Intern.code in
  let nan2 = Int64.float_of_bits 0x7ff0_0000_0000_0001L in
  Alcotest.(check bool) "a second NaN" true (Float.is_nan nan2);
  Alcotest.(check int) "NaNs share a code" (code (Value.VFloat Float.nan))
    (code (Value.VFloat nan2));
  Alcotest.(check int) "NaN is stable" (code (Value.VFloat Float.nan))
    (code (Value.VFloat (Float.neg Float.nan)));
  Alcotest.(check int) "0.0 and -0.0 share a code" (code (Value.VFloat 0.0))
    (code (Value.VFloat (-0.0)));
  let ones =
    [ Value.VInt 1; Value.VFloat 1.0; vs "1"; Value.VBool true ]
  in
  let cs = List.map code ones in
  Alcotest.(check int) "1, 1.0, \"1\" and true code apart" 4
    (List.length (List.sort_uniq compare cs));
  Alcotest.(check (list int)) "codes are stable" cs (List.map code ones);
  (* a new constant takes the next code *)
  let fresh = vs "intern: a constant no other test uses" in
  let next = Intern.pool_size () in
  Alcotest.(check int) "insertion order" next (code fresh);
  Alcotest.(check int) "pool grew by one" (next + 1) (Intern.pool_size ())

(* ---- colstore ----------------------------------------------------------- *)

let row3 i = [| Intern.code (vs (Printf.sprintf "k%d" (i mod 17))); i; i * i |]

let live_rows cs =
  List.rev (Colstore.fold_live cs (fun acc r -> Colstore.row_cells cs r :: acc) [])

let test_colstore_shard_invariant () =
  (* duplicates included: every fifth row repeats an earlier one *)
  let rows = List.init 60 (fun i -> row3 (if i mod 5 = 4 then i - 4 else i)) in
  let reference = ref None in
  List.iter
    (fun shards ->
      let cs = Colstore.of_rows ~shards ~arity:3 rows in
      Alcotest.(check int)
        (Printf.sprintf "dedup at %d shard(s)" shards)
        48 (Colstore.count cs);
      Alcotest.(check bool) "all rows members" true
        (List.for_all (Colstore.mem cs) rows);
      Alcotest.(check int)
        (Printf.sprintf "shard_live sums to count at %d" shards)
        (Colstore.count cs)
        (Array.fold_left ( + ) 0 (Colstore.shard_live cs));
      let order = live_rows cs in
      (match !reference with
      | None -> reference := Some order
      | Some expected ->
          Alcotest.(check bool)
            (Printf.sprintf "iteration order at %d shard(s)" shards)
            true
            (List.for_all2 (fun x y -> x = y) expected order));
      (* remove one row, reinsert it: membership and counters track *)
      let victim = List.hd rows in
      (match Colstore.remove cs victim with
      | None -> Alcotest.fail "victim not found"
      | Some _ -> ());
      Alcotest.(check bool) "removed" false (Colstore.mem cs victim);
      Alcotest.(check int) "one rot" 1
        (Array.fold_left ( + ) 0 (Colstore.shard_rot cs));
      ignore (Colstore.insert cs victim);
      Alcotest.(check bool) "back" true (Colstore.mem cs victim))
    shard_counts

let test_colstore_of_flat () =
  let tuples =
    List.init 25 (fun i -> [| vs (string_of_int i); Value.VInt i |])
  in
  let n, data = Intern.code_rows ~arity:2 tuples in
  let cs = Colstore.of_flat ~shards:3 ~arity:2 ~rows:n data in
  Alcotest.(check int) "count" 25 (Colstore.count cs);
  Alcotest.(check bool) "untracked" false (Colstore.tracked cs);
  Alcotest.(check bool) "cells readable" true
    (List.for_all2
       (fun r tup ->
         Colstore.get cs r 0 = Intern.code tup.(0)
         && Colstore.get cs r 1 = Intern.code tup.(1))
       (List.init n Fun.id) tuples);
  (* untracked membership degrades to a scan but stays correct *)
  Alcotest.(check bool) "mem by scan" true
    (Colstore.mem cs (Intern.code_tuple (List.nth tuples 13)));
  Alcotest.(check bool) "absent row" false
    (Colstore.mem cs [| Intern.code (vs "nope"); Intern.code (Value.VInt 99) |])

(* ---- column indexes ------------------------------------------------------ *)

(* The live rows a probe walk visits whose cells equal the key, in walk
   order, and the number of candidates it visited. *)
let walk_matches cs ix cols key =
  let visited = ref 0 and hits = ref [] in
  let row = ref (Colstore.first ix key) in
  while !row >= 0 do
    incr visited;
    if
      Colstore.is_live cs !row
      && Array.for_all2 (fun c k -> Colstore.get cs !row c = k) cols key
    then hits := !row :: !hits;
    row := Colstore.next ix !row
  done;
  (List.rev !hits, !visited)

(* the same rows by brute force: live, equal cells, newest first *)
let brute_matches cs cols key =
  Colstore.fold_live cs
    (fun acc row ->
      if Array.for_all2 (fun c k -> Colstore.get cs row c = k) cols key then
        row :: acc
      else acc)
    []

type ix_op = Insert of int * int * int | Remove of int | Maybe_prune | Prune

(* where the index is built: on an empty tracked store, after the
   [n]th op, or over an [of_flat] bulk load of [n] rows (untracked, so
   no further mutation) *)
type ix_start = On_empty | Mid_way of int | On_flat of int

let ix_cols = [| 2; 0 |]

let gen_ix_case =
  QCheck.Gen.(
    let op =
      frequency
        [
          ( 6,
            map3
              (fun k x j -> Insert (k, x, j))
              (int_bound 11) (int_bound 1_000) (int_bound 3) );
          (3, map (fun i -> Remove i) (int_bound 10_000));
          (1, return Maybe_prune);
          (1, return Prune);
        ]
    in
    let* ops = list_size (int_range 50 400) op in
    let* start =
      oneof
        [
          return On_empty;
          map (fun n -> Mid_way n) (int_bound (List.length ops));
          map (fun n -> On_flat n) (int_range 1 600);
        ]
    in
    return (start, ops))

let print_ix_case (start, ops) =
  Printf.sprintf "%s, %d ops"
    (match start with
    | On_empty -> "index on empty store"
    | Mid_way n -> Printf.sprintf "index after op %d" n
    | On_flat n -> Printf.sprintf "index on %d-row of_flat" n)
    (List.length ops)

let ix_row (k, x, j) = [| k; x; j |]

(* probe every key of the (small) key domain and compare with brute
   force; keys are (column 2, column 0) *)
let ix_agrees cs ix =
  List.for_all
    (fun key ->
      fst (walk_matches cs ix ix_cols key) = brute_matches cs ix_cols key)
    (List.concat_map
       (fun j -> List.init 12 (fun k -> [| j; k |]))
       [ 0; 1; 2; 3 ])

let run_ix_case shards (start, ops) =
  match start with
  | On_flat n ->
      let data = Array.make (max 16 n * 3) 0 in
      for r = 0 to n - 1 do
        Array.blit (ix_row (r mod 12, r, r mod 4)) 0 data (r * 3) 3
      done;
      let cs = Colstore.of_flat ~shards ~arity:3 ~rows:n data in
      ix_agrees cs (Colstore.ensure_index cs ix_cols)
  | On_empty | Mid_way _ ->
      let cs = Colstore.create ~shards ~arity:3 16 in
      let inserted = ref [||] in
      let ok = ref true in
      let ix = ref None in
      let build () = ix := Some (Colstore.ensure_index cs ix_cols) in
      if start = On_empty then build ();
      List.iteri
        (fun i op ->
          if start = Mid_way i then build ();
          (match op with
          | Insert (k, x, j) ->
              let cells = ix_row (k, x, j) in
              if Colstore.insert cs cells <> None then
                inserted := Array.append !inserted [| cells |]
          | Remove i ->
              let n = Array.length !inserted in
              if n > 0 then ignore (Colstore.remove cs !inserted.(i mod n))
          | Maybe_prune -> Colstore.maybe_prune cs
          | Prune -> Colstore.prune_indexes cs);
          match !ix with
          | Some ix when i mod 25 = 0 -> ok := !ok && ix_agrees cs ix
          | _ -> ())
        ops;
      if !ix = None then build ();
      !ok && match !ix with Some ix -> ix_agrees cs ix | None -> false

let prop_index_walk =
  QCheck.Test.make
    ~name:"colstore: index walks visit exactly the live matches, newest first"
    ~count:150
    (QCheck.make gen_ix_case ~print:print_ix_case)
    (fun case -> List.for_all (fun shards -> run_ix_case shards case) [ 1; 3 ])

(* The head array is sized from the live count when the index is built:
   a bulk-loaded store must not start at a handful of buckets, which
   would turn every probe into a long chain walk. *)
let test_index_sized_from_count () =
  let n = 10_000 in
  let data = Array.make (n * 2) 0 in
  for r = 0 to n - 1 do
    data.(2 * r) <- r;
    data.((2 * r) + 1) <- r * 7
  done;
  let cs = Colstore.of_flat ~shards:1 ~arity:2 ~rows:n data in
  let ix = Colstore.ensure_index cs [| 0 |] in
  let visited = ref 0 and found = ref 0 in
  for k = 0 to n - 1 do
    let hits, seen = walk_matches cs ix [| 0 |] [| k |] in
    visited := !visited + seen;
    found := !found + List.length hits
  done;
  Alcotest.(check int) "every key found once" n !found;
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates visited for %d probes (at most 2 per probe)"
       !visited n)
    true
    (!visited <= 2 * n)

(* ---- engine shard invariance -------------------------------------------- *)

let esource =
  Schema.make ~name:"ssrc"
    [
      Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "u" [ ("b", Schema.TString) ];
    ]
    []

let etarget =
  Schema.make ~name:"stgt"
    [
      Schema.table ~key:[ "a" ] "s"
        [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "t" [ ("b", Schema.TString); ("c", Schema.TString) ];
    ]
    []

let etgds =
  [
    Dependency.tgd ~name:"m1"
      ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "x"; v "y" ] ];
    Dependency.tgd ~name:"m2"
      ~lhs:[ a "u" [ v "y" ] ]
      [ a "t" [ v "y"; v "z" ] ];
    Dependency.tgd ~name:"m3"
      ~lhs:[ a "r" [ v "x"; v "y" ]; a "u" [ v "y" ] ]
      [ a "s" [ v "x"; v "w" ]; a "t" [ v "w"; v "c" ] ];
  ]

(* joins, skolems and key egds all live: r/u overlap on b so m3 fires
   and the key on s merges its nulls against m1's facts *)
let einst =
  let add name header tup acc = Instance.add_tuple acc name ~header tup in
  let acc = ref Instance.empty in
  for i = 0 to 119 do
    acc :=
      add "r" [ "a"; "b" ]
        [| vs (Printf.sprintf "a%d" i); vs (Printf.sprintf "b%d" (i mod 40)) |]
        !acc;
    if i mod 3 = 0 then
      acc := add "u" [ "b" ] [| vs (Printf.sprintf "b%d" (i mod 40)) |] !acc
  done;
  !acc

let engine_doc ?pool ?shards () =
  match
    Engine.run ?pool ?shards ~source:esource ~target:etarget ~mappings:etgds
      einst
  with
  | Error m -> Alcotest.failf "engine: %s" m
  | Ok rep ->
      ( Render.exchange_json ~head:[] ~laconic:false rep,
        rep.Engine.r_target,
        rep.Engine.r_shards )

let test_engine_shard_matrix () =
  let base_doc, base_target, _ = engine_doc ~shards:1 () in
  List.iter
    (fun shards ->
      (* sequential: partitioning must be invisible to the bytes *)
      let doc, _, sv = engine_doc ~shards () in
      Alcotest.(check string)
        (Printf.sprintf "sequential doc at %d shard(s)" shards)
        base_doc doc;
      Alcotest.(check int)
        (Printf.sprintf "report carries %d shard(s)" shards)
        shards sv.Smg_exchange.Obs.sv_shards;
      Alcotest.(check bool) "intern pool visible" true
        (sv.Smg_exchange.Obs.sv_intern_pool > 0);
      (* pooled: hom-equivalent at every shard count *)
      Pool.with_pool ~domains:4 (fun pool ->
          let _, target, _ = engine_doc ~pool ~shards () in
          Alcotest.(check bool)
            (Printf.sprintf "pooled target ≡hom at %d shard(s)" shards)
            true
            (Equiv.equivalent base_target target)))
    shard_counts

(* ---- chase differential ------------------------------------------------ *)

(* The chase defines what exchange must produce: at every shard count,
   and under the laconic sweep, the engine's target is ≡hom the chase's. *)
let test_chase_differential () =
  let chased =
    match
      Smg_cq.Chase.exchange ~source:esource ~target:etarget ~mappings:etgds
        einst
    with
    | Smg_cq.Chase.Saturated i -> i
    | Smg_cq.Chase.Bounded _ -> Alcotest.fail "chase did not saturate"
    | Smg_cq.Chase.Failed m -> Alcotest.failf "chase: %s" m
  in
  List.iter
    (fun shards ->
      let _, target, _ = engine_doc ~shards () in
      Alcotest.(check bool)
        (Printf.sprintf "engine ≡hom chase at %d shard(s)" shards)
        true
        (Equiv.equivalent chased target))
    shard_counts;
  match
    Engine.run ~laconic:true ~shards:3 ~source:esource ~target:etarget
      ~mappings:etgds einst
  with
  | Ok rep ->
      Alcotest.(check bool) "laconic engine ≡hom chase" true
        (Equiv.equivalent chased rep.Engine.r_target)
  | Error m -> Alcotest.failf "engine laconic: %s" m

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "shards",
      [
        q prop_intern_roundtrip;
        q prop_intern_rows;
        Alcotest.test_case "intern null arithmetic" `Quick test_intern_nulls;
        Alcotest.test_case "intern code classes" `Quick test_intern_code_classes;
        Alcotest.test_case "colstore invariant across shard counts" `Quick
          test_colstore_shard_invariant;
        Alcotest.test_case "colstore adopts a flat arena" `Quick
          test_colstore_of_flat;
        q prop_index_walk;
        Alcotest.test_case "colstore index sized from the live count" `Quick
          test_index_sized_from_count;
        Alcotest.test_case "engine matrix: shards {1,3,4,7} × domains {1,4}"
          `Quick test_engine_shard_matrix;
        Alcotest.test_case "interned engine tracks the chase" `Quick
          test_chase_differential;
      ] );
  ]
