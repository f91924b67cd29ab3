(* Tests for Smg_exchange: the plan compiler, the hash-join execution
   engine, the laconic preparation/sweep, and their agreement with the
   naive chase — qcheck properties over random ground sources plus
   alcotest fixtures for all seven built-in evaluation domains. *)

module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase
module Mapping = Smg_cq.Mapping
module Hom = Smg_cq.Hom
module Icore = Smg_verify.Icore
module Plan = Smg_exchange.Plan
module Engine = Smg_exchange.Engine
module Laconic = Smg_exchange.Laconic
module Scenario = Smg_eval.Scenario
module Datasets = Smg_eval.Datasets
module Witness = Smg_eval.Witness

let v = Atom.v
let a = Atom.atom
let vs s = Value.VString s

(* ---- helpers ----------------------------------------------------------- *)

let hom_into = Smg_verify.Equiv.hom_into
let hom_equiv = Smg_verify.Equiv.equivalent

(* The instance as atoms with labelled nulls kept as constants — the
   reading needed when checking that a (source, target) pair satisfies a
   tgd, where nulls are ordinary values. *)
let const_atoms inst =
  List.concat_map
    (fun name ->
      match Instance.relation inst name with
      | None -> []
      | Some r ->
          List.map
            (fun tup ->
              Atom.atom name (List.map Atom.c (Array.to_list tup)))
            r.Instance.tuples)
    (Instance.names inst)

(* (source, target) ⊨ tgd: every lhs match over the source extends to an
   rhs match over the target (existentials as wildcards). *)
let satisfies_tgd src_inst tgt_inst (t : Dependency.tgd) =
  let src_atoms = Hom.index (const_atoms src_inst) in
  let tgt_atoms = Hom.index (const_atoms tgt_inst) in
  Hom.all src_atoms t.Dependency.lhs
  |> List.for_all (fun s ->
         let universals = Dependency.universal_vars t in
         let init =
           List.fold_left
             (fun acc x ->
               match Atom.Subst.find s x with
               | Some term -> Atom.Subst.bind acc x term
               | None -> acc)
             Atom.Subst.empty universals
         in
         Hom.holds ~init tgt_atoms t.Dependency.rhs)

(* ---- fixed property-test mapping --------------------------------------- *)

let psource =
  Schema.make ~name:"psrc"
    [
      Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "u" [ ("b", Schema.TString) ];
    ]
    []

let ptarget =
  Schema.make ~name:"ptgt"
    [
      Schema.table ~key:[ "a" ] "s"
        [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "t" [ ("b", Schema.TString); ("c", Schema.TString) ];
    ]
    []

let ptgds =
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

let inst_of (rs, us) =
  let i =
    List.fold_left
      (fun i (x, y) ->
        Instance.add_tuple i "r" ~header:[ "a"; "b" ] [| vs x; vs y |])
      Instance.empty rs
  in
  List.fold_left
    (fun i y -> Instance.add_tuple i "u" ~header:[ "b" ] [| vs y |])
    i us

let arb_src =
  let open QCheck in
  let pool = Gen.oneofl [ "p"; "q"; "w"; "z" ] in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_bound 6) (Gen.pair pool pool))
      (Gen.list_size (Gen.int_bound 6) pool)
  in
  let print (rs, us) =
    Printf.sprintf "r=[%s] u=[%s]"
      (String.concat ";" (List.map (fun (x, y) -> x ^ "," ^ y) rs))
      (String.concat ";" us)
  in
  make ~print gen

let engine_run ?laconic inst =
  Engine.run ?laconic ~source:psource ~target:ptarget ~mappings:ptgds inst

(* (a) the engine's output, joined with the source, satisfies every tgd *)
let prop_satisfies =
  QCheck.Test.make ~name:"engine output satisfies every tgd" ~count:100 arb_src
    (fun src ->
      let inst = inst_of src in
      match engine_run inst with
      | Error _ -> true (* key conflict: no solution exists *)
      | Ok rep ->
          List.for_all (satisfies_tgd inst rep.Engine.r_target) ptgds)

(* (b) homomorphically equivalent to the naive-chase solution *)
let prop_chase_equiv =
  QCheck.Test.make ~name:"engine ≡hom naive chase" ~count:100 arb_src
    (fun src ->
      let inst = inst_of src in
      let fast = engine_run inst in
      let naive =
        Chase.exchange ~source:psource ~target:ptarget ~mappings:ptgds inst
      in
      match (fast, naive) with
      | Ok rep, Chase.Saturated i -> hom_equiv rep.Engine.r_target i
      | Error _, Chase.Failed _ -> true
      | _ -> false)

(* (c) the laconic path's output embeds into the naive core *)
let prop_laconic_embeds =
  QCheck.Test.make ~name:"laconic output embeds into naive core" ~count:100
    arb_src (fun src ->
      let inst = inst_of src in
      match
        ( engine_run ~laconic:true inst,
          Chase.exchange ~source:psource ~target:ptarget ~mappings:ptgds inst )
      with
      | Ok rep, Chase.Saturated i ->
          let core = Icore.core i in
          hom_into rep.Engine.r_target core && hom_into core rep.Engine.r_target
      | Error _, Chase.Failed _ -> true
      | _ -> false)

(* ---- plan compiler fixtures -------------------------------------------- *)

let test_plan_shape () =
  let p = Plan.compile ~source:psource ~target:ptarget (List.nth ptgds 2) in
  Alcotest.(check int) "two scans" 2 (List.length p.Plan.p_scans);
  (match p.Plan.p_scans with
  | [ first; second ] ->
      Alcotest.(check bool) "first scan has no probe key" true
        (first.Plan.sc_eqs = []);
      Alcotest.(check bool) "second scan probes the join attribute" true
        (second.Plan.sc_eqs <> [])
  | _ -> Alcotest.fail "expected two scans");
  Alcotest.(check int) "two existential wildcards" 2 p.Plan.p_nex;
  Alcotest.(check int) "two fresh nulls per trigger" 2 p.Plan.p_nnulls;
  (* smoke the EXPLAIN printer *)
  Alcotest.(check bool) "pp renders" true
    (String.length (Fmt.str "%a" Plan.pp p) > 0)

let test_plan_join_order () =
  (* with cardinalities, the smaller relation drives the join *)
  let card = function "r" -> 1000 | _ -> 1 in
  let p = Plan.compile ~card ~source:psource ~target:ptarget (List.nth ptgds 2) in
  match p.Plan.p_scans with
  | first :: _ ->
      Alcotest.(check string) "small relation first" "u" first.Plan.sc_pred
  | [] -> Alcotest.fail "no scans"

let test_plan_rejects_bad_arity () =
  let bad =
    Dependency.tgd ~name:"bad" ~lhs:[ a "r" [ v "x" ] ] [ a "s" [ v "x"; v "y" ] ]
  in
  match Plan.compile ~source:psource ~target:ptarget bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected"

(* ---- engine fixtures ---------------------------------------------------- *)

let test_engine_simple () =
  let inst = inst_of ([ ("1", "2") ], [ "2" ]) in
  match engine_run inst with
  | Error m -> Alcotest.fail m
  | Ok rep ->
      Alcotest.(check int) "one s row" 1
        (Instance.cardinality rep.Engine.r_target "s");
      Alcotest.(check int) "one t row (m2's; m3 satisfied)" 1
        (Instance.cardinality rep.Engine.r_target "t");
      Alcotest.(check bool) "complete" true rep.Engine.r_complete

let test_engine_key_conflict () =
  (* two r rows with the same key column and different b: s's key egd
     equates the constants "2" and "3" *)
  let inst = inst_of ([ ("1", "2"); ("1", "3") ], []) in
  match engine_run inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a key-egd conflict"

let test_engine_egd_merges_null () =
  (* m3 invents w for s(x,w); m1's s(x,y) forces w := y through the key,
     and the substituted t row then carries the constant *)
  let inst = inst_of ([ ("1", "2") ], [ "2" ]) in
  match engine_run inst with
  | Error m -> Alcotest.fail m
  | Ok rep -> (
      match Instance.relation rep.Engine.r_target "s" with
      | Some { Instance.tuples = [ tup ]; _ } ->
          Alcotest.(check bool) "s row is ground" true
            (Value.equal tup.(0) (vs "1") && Value.equal tup.(1) (vs "2"))
      | _ -> Alcotest.fail "expected exactly one s row")

let test_engine_stats () =
  let inst = inst_of ([ ("1", "2"); ("3", "4") ], [ "2"; "4" ]) in
  match engine_run inst with
  | Error m -> Alcotest.fail m
  | Ok rep ->
      Alcotest.(check int) "one stats row per tgd" 3
        (List.length rep.Engine.r_stats);
      let total_emitted =
        List.fold_left
          (fun acc (_, st) -> acc + st.Smg_exchange.Obs.n_emitted)
          0 rep.Engine.r_stats
      in
      Alcotest.(check int) "emitted = target tuples" total_emitted
        (Instance.total_tuples rep.Engine.r_target);
      Alcotest.(check bool) "pp_report renders" true
        (String.length (Fmt.str "%a" Engine.pp_report rep) > 0)

let test_skolem_merge () =
  (* two tgds emitting the same Skolem term produce one merged row, and
     the engine's value is identical to the chase's *)
  let source =
    Schema.make ~name:"sk-src"
      [
        Schema.table "r" [ ("a", Schema.TString) ];
        Schema.table "u" [ ("a", Schema.TString) ];
      ]
      []
  in
  let target =
    Schema.make ~name:"sk-tgt"
      [
        Schema.table ~key:[ "a" ] "s"
          [ ("a", Schema.TString); ("c", Schema.TString) ];
      ]
      []
  in
  let sk = Chase.skolem_var ~f:"addr" ~args:[ "x" ] in
  let tgds =
    [
      Dependency.tgd ~name:"k1" ~lhs:[ a "r" [ v "x" ] ]
        [ a "s" [ v "x"; v sk ] ];
      Dependency.tgd ~name:"k2" ~lhs:[ a "u" [ v "x" ] ]
        [ a "s" [ v "x"; v sk ] ];
    ]
  in
  let inst =
    Instance.add_tuple Instance.empty "r" ~header:[ "a" ] [| vs "1" |]
    |> fun i -> Instance.add_tuple i "u" ~header:[ "a" ] [| vs "1" |]
  in
  match Engine.run ~source ~target ~mappings:tgds inst with
  | Error m -> Alcotest.fail m
  | Ok rep -> (
      Alcotest.(check int) "one merged row" 1
        (Instance.cardinality rep.Engine.r_target "s");
      match Chase.exchange ~source ~target ~mappings:tgds inst with
      | Chase.Saturated i ->
          Alcotest.(check bool) "identical to the chase (ground skolems)"
            true
            (Instance.equal rep.Engine.r_target i)
      | _ -> Alcotest.fail "chase should saturate")

(* A key egd over a composite (a, b) key whose groups only collide after
   a substitution. m1 writes s(x, y, n) and s(n, y, m) for fresh n, m;
   m2's ground s(x, y, z) shares the first row's key, so round 1 binds
   n := z. The second row was grouped under key (n, y) before that
   binding, so it only meets m3's s(z, y, w) in round 2, which binds
   m := w. Round 3 merges nothing. *)
let test_engine_egd_composite_key () =
  let col c = (c, Schema.TString) in
  let source =
    Schema.make ~name:"ck-src"
      [
        Schema.table "p" [ col "x"; col "y" ];
        Schema.table "q" [ col "x"; col "y"; col "z" ];
        Schema.table "r" [ col "z"; col "y"; col "w" ];
      ]
      []
  in
  let target =
    Schema.make ~name:"ck-tgt"
      [ Schema.table ~key:[ "a"; "b" ] "s" [ col "a"; col "b"; col "c" ] ]
      []
  in
  let tgds =
    [
      Dependency.tgd ~name:"m1"
        ~lhs:[ a "p" [ v "x"; v "y" ] ]
        [ a "s" [ v "x"; v "y"; v "n" ]; a "s" [ v "n"; v "y"; v "m" ] ];
      Dependency.tgd ~name:"m2"
        ~lhs:[ a "q" [ v "x"; v "y"; v "z" ] ]
        [ a "s" [ v "x"; v "y"; v "z" ] ];
      Dependency.tgd ~name:"m3"
        ~lhs:[ a "r" [ v "z"; v "y"; v "w" ] ]
        [ a "s" [ v "z"; v "y"; v "w" ] ];
    ]
  in
  let inst =
    List.fold_left
      (fun acc i ->
        let c fmt = vs (Printf.sprintf fmt i) in
        acc
        |> (fun acc ->
             Instance.add_tuple acc "p" ~header:[ "x"; "y" ] [| c "x%d"; c "y%d" |])
        |> (fun acc ->
             Instance.add_tuple acc "q" ~header:[ "x"; "y"; "z" ]
               [| c "x%d"; c "y%d"; c "z%d" |])
        |> fun acc ->
        Instance.add_tuple acc "r" ~header:[ "z"; "y"; "w" ]
          [| c "z%d"; c "y%d"; c "w%d" |])
      Instance.empty [ 1; 2; 3 ]
  in
  let chased =
    match Chase.exchange ~source ~target ~mappings:tgds inst with
    | Chase.Saturated i -> i
    | _ -> Alcotest.fail "chase should saturate"
  in
  List.iter
    (fun shards ->
      match Engine.run ~shards ~source ~target ~mappings:tgds inst with
      | Error m -> Alcotest.fail m
      | Ok rep ->
          Alcotest.(check int) "two merges per p row" 6 rep.Engine.r_egd_merges;
          Alcotest.(check int) "round 2 merges, round 3 confirms" 3
            rep.Engine.r_rounds;
          Alcotest.(check int) "two ground s rows per p row" 6
            (Instance.cardinality rep.Engine.r_target "s");
          Alcotest.(check bool)
            (Printf.sprintf "≡hom the chase at %d shard(s)" shards)
            true
            (hom_equiv chased rep.Engine.r_target))
    [ 1; 3 ]

(* ---- laconic fixtures --------------------------------------------------- *)

let test_laconic_prepare_dedups () =
  let t1 =
    Dependency.tgd ~name:"d1" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "x"; v "y" ] ]
  in
  let t2 =
    (* same dependency, renamed variables *)
    Dependency.tgd ~name:"d2" ~lhs:[ a "r" [ v "p"; v "q" ] ]
      [ a "s" [ v "p"; v "q" ] ]
  in
  Alcotest.(check int) "equivalent tgds collapse" 1
    (List.length (Laconic.prepare [ t1; t2 ]))

let test_laconic_prepare_minimizes () =
  (* a redundant lhs atom folds away *)
  let t =
    Dependency.tgd ~name:"redundant"
      ~lhs:[ a "r" [ v "x"; v "y" ]; a "r" [ v "x"; v "y2" ] ]
      [ a "s" [ v "x"; v "x" ] ]
  in
  match Laconic.prepare [ t ] with
  | [ t' ] ->
      Alcotest.(check int) "one lhs atom left" 1
        (List.length t'.Dependency.lhs)
  | _ -> Alcotest.fail "expected one tgd"

let test_laconic_sweep () =
  let n1 = Value.fresh_null () and n2 = Value.fresh_null () in
  let i =
    Instance.add_tuple Instance.empty "t" ~header:[ "a"; "b" ]
      [| vs "1"; vs "c" |]
    |> fun i ->
    Instance.add_tuple i "t" ~header:[ "a"; "b" ] [| vs "1"; n1 |]
    |> fun i ->
    (* n2 is shared across two tuples: neither may be dropped *)
    Instance.add_tuple i "t" ~header:[ "a"; "b" ] [| vs "2"; n2 |]
    |> fun i -> Instance.add_tuple i "u" ~header:[ "b" ] [| n2 |]
  in
  let swept, dropped = Laconic.sweep i in
  Alcotest.(check int) "one tuple folded" 1 dropped;
  Alcotest.(check int) "t keeps two rows" 2 (Instance.cardinality swept "t");
  Alcotest.(check int) "u untouched" 1 (Instance.cardinality swept "u")

let test_laconic_near_core () =
  (* on the fixed mapping the laconic path should produce exactly the
     core-sized instance *)
  let inst = inst_of ([ ("1", "2"); ("3", "4") ], [ "2"; "9" ]) in
  match engine_run ~laconic:true inst with
  | Error m -> Alcotest.fail m
  | Ok rep -> (
      match
        Chase.exchange ~source:psource ~target:ptarget ~mappings:ptgds inst
      with
      | Chase.Saturated i ->
          let core = Icore.core i in
          Alcotest.(check int) "laconic output is core-sized"
            (Instance.total_tuples core)
            (Instance.total_tuples rep.Engine.r_target);
          Alcotest.(check bool) "and hom-equivalent to it" true
            (hom_equiv rep.Engine.r_target core)
      | _ -> Alcotest.fail "chase should saturate")

(* ---- seven built-in domains -------------------------------------------- *)

(* ---- the coded sweep against a naive reference ------------------------ *)

(* The sweep's definition (laconic.ml), followed naively: relations in
   name order, each swept in passes until one drops nothing, rows in
   order. A row goes when it has a null, every null of it occurs nowhere
   else among the live rows of any relation, and another live row of its
   relation is its image under a consistent null assignment. Survivors
   come back in reverse row order, the documented output order. *)
let reference_sweep (rels : (string * Value.t array list) list) =
  let rels =
    List.map
      (fun (name, ts) ->
        (name, Array.of_list ts, Array.make (List.length ts) true))
      rels
  in
  let occurrences k =
    List.fold_left
      (fun acc (_, ts, live) ->
        let n = ref acc in
        Array.iteri
          (fun i t ->
            if live.(i) then
              Array.iter
                (fun v -> if Value.equal v (Value.VNull k) then incr n)
                t)
          ts;
        !n)
      0 rels
  in
  let image t t' =
    let m = Hashtbl.create 4 in
    let ok = ref true in
    Array.iteri
      (fun p v ->
        match v with
        | Value.VNull k -> (
            match Hashtbl.find_opt m k with
            | Some w -> if not (Value.equal w t'.(p)) then ok := false
            | None -> Hashtbl.add m k t'.(p))
        | v -> if not (Value.equal v t'.(p)) then ok := false)
      t;
    !ok
  in
  let dropped = ref 0 in
  List.iter
    (fun (_, ts, live) ->
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i t ->
            let nulls =
              List.filter_map
                (function Value.VNull k -> Some k | _ -> None)
                (Array.to_list t)
            in
            let only_here k =
              occurrences k = List.length (List.filter (( = ) k) nulls)
            in
            let subsumed () =
              let found = ref false in
              Array.iteri
                (fun j t' -> if j <> i && live.(j) && image t t' then found := true)
                ts;
              !found
            in
            if live.(i) && nulls <> [] && List.for_all only_here nulls
               && subsumed ()
            then begin
              live.(i) <- false;
              incr dropped;
              changed := true
            end)
          ts
      done)
    rels;
  ( List.map
      (fun (name, ts, live) ->
        ( name,
          List.rev (List.filteri (fun i _ -> live.(i)) (Array.to_list ts)) ))
      rels,
    !dropped )

let instance_of_rels rels =
  Instance.of_list
    (List.map
       (fun (name, ts) ->
         let arity = match ts with t :: _ -> Array.length t | [] -> 1 in
         ( name,
           {
             Instance.header = List.init arity (Printf.sprintf "c%d");
             tuples = ts;
           } ))
       rels)

let swept_rels inst =
  List.map
    (fun name -> (name, (Option.get (Instance.relation inst name)).Instance.tuples))
    (Instance.names inst)

let pp_rels rels =
  String.concat "\n"
    (List.map
       (fun (name, ts) ->
         name ^ ": "
         ^ String.concat " "
             (List.map
                (fun t ->
                  "("
                  ^ String.concat "," (List.map Value.to_string (Array.to_list t))
                  ^ ")")
                ts))
       rels)

(* Three relations over small pools: three constants and six null
   labels shared by all relations, so null patterns repeat, a null
   repeats inside a tuple, nulls are shared across relations, masks nest
   strictly, and some tuples are appended twice. A fourth mixes ground
   rows with rows derived from them by overwriting cells with nulls or
   other constants, in shuffled order: null rows meet ground rows that
   hold their constants, before and after them. *)
let arb_sweep_input =
  let open QCheck.Gen in
  let const = map (fun i -> vs (Printf.sprintf "k%d" i)) (int_bound 2) in
  let null = map (fun k -> Value.VNull (900_000 + k)) (int_bound 5) in
  let cell = frequency [ (3, const); (2, null) ] in
  let rel name =
    int_range 1 4 >>= fun arity ->
    list_size (int_bound 10) (array_size (return arity) cell) >>= fun ts ->
    list_size (int_bound 2) (int_bound 9) >|= fun dups ->
    (name, ts @ List.filteri (fun i _ -> List.mem i dups) ts)
  in
  let mixed name =
    int_range 1 4 >>= fun arity ->
    list_size (int_range 1 8) (array_size (return arity) const) >>= fun ground ->
    let ground = Array.of_list ground in
    let overwrite =
      frequency [ (2, return None); (2, map Option.some null); (1, map Option.some const) ]
    in
    list_size (int_bound 10)
      ( int_bound (Array.length ground - 1) >>= fun i ->
        array_size (return arity) overwrite >|= fun over ->
        Array.mapi
          (fun p c -> Option.value ~default:c over.(p))
          ground.(i) )
    >>= fun derived ->
    shuffle_l (Array.to_list ground @ derived) >|= fun ts -> (name, ts)
  in
  QCheck.make ~print:pp_rels
    (quad (rel "a") (rel "b") (rel "c") (mixed "d") >|= fun (x, y, z, w) ->
     [ x; y; z; w ])

let prop_sweep_reference =
  QCheck.Test.make ~name:"sweep = naive reference (survivors, order, drops)"
    ~count:500 arb_sweep_input (fun rels ->
      let swept, dropped = Laconic.sweep (instance_of_rels rels) in
      let expected, expected_dropped = reference_sweep rels in
      swept_rels swept = expected && dropped = expected_dropped)

(* [sweep_coded] reads only the listed rows: the same relations laid out
   with a junk row (holding the relations' nulls) after every real one,
   which would change "only here" if it were counted. *)
let prop_sweep_coded_rows =
  QCheck.Test.make ~name:"sweep_coded skips unlisted arena rows" ~count:300
    arb_sweep_input (fun rels ->
      let coded =
        List.map
          (fun (_, ts) ->
            let arity = match ts with t :: _ -> Array.length t | [] -> 1 in
            let junk = Array.init arity (fun p -> Value.VNull (900_000 + p)) in
            let n, data =
              Smg_relational.Intern.code_rows ~arity
                (List.concat_map (fun t -> [ t; junk ]) ts)
            in
            {
              Laconic.arity;
              data;
              rows = Array.init (n / 2) (fun k -> 2 * k);
            })
          rels
      in
      let live, dropped = Laconic.sweep_coded coded in
      let survivors =
        List.map2
          (fun (name, ts) live ->
            (name, List.rev (List.filteri (fun i _ -> live.(i)) ts)))
          rels live
      in
      (survivors, dropped) = reference_sweep rels)

(* Null positions past any machine word's width: a 70-column relation. *)
let test_laconic_sweep_wide () =
  let arity = 70 in
  let full = Array.init arity (fun p -> vs (Printf.sprintf "w%d" p)) in
  let with_nulls cells =
    let t = Array.copy full in
    List.iter (fun (p, v) -> t.(p) <- v) cells;
    t
  in
  let n k = Value.VNull (910_000 + k) in
  (* subsumed by [full]: two fresh nulls at positions 64 and 69 *)
  let sub = with_nulls [ (64, n 1); (69, n 2) ] in
  (* one null twice, at 64 and 69: [full]'s cells there differ, so no
     consistent image exists *)
  let twice = with_nulls [ (64, n 3); (69, n 3) ] in
  (* a constant no other row has, at 69 *)
  let other = with_nulls [ (0, n 4); (69, vs "x") ] in
  let rels = [ ("wide", [ full; sub; twice; other ]) ] in
  let swept, dropped = Laconic.sweep (instance_of_rels rels) in
  Alcotest.(check int) "one row folded" 1 dropped;
  Alcotest.(check bool) "survivors in reverse order" true
    (swept_rels swept = [ ("wide", [ other; twice; full ]) ]);
  Alcotest.(check bool) "as the reference has it" true
    ((swept_rels swept, dropped) = reference_sweep rels)

(* Time guard: 5x10^4 ground rows beside 5x10^4 one-null rows that no
   ground row subsumes. The sweep probes each null row's constants in
   an index over the ground rows, so this takes well under a second;
   trying every ground row as a candidate for every null row (2.5x10^9
   tests) takes tens of seconds. *)
let test_laconic_sweep_mixed_scale () =
  let n = 50_000 in
  let rows =
    List.concat
      (List.init n (fun i ->
           [
             [| Value.VInt i; Value.VInt i |];
             [| Value.VInt (n + i); Value.VNull (2_000_000 + i) |];
           ]))
  in
  let (swept, dropped), elapsed =
    Smg_robust.Clock.time (fun () ->
        Laconic.sweep (instance_of_rels [ ("m", rows) ]))
  in
  Alcotest.(check int) "nothing folds" 0 dropped;
  Alcotest.(check int) "every row survives" (2 * n)
    (Instance.cardinality swept "m");
  if elapsed >= 2.0 then
    Alcotest.failf "sweeping %d rows took %.2f s (limit 2 s)" (2 * n) elapsed

(* ---- laconic exchange byte-parity pins ---------------------------------- *)

(* the CLI's laconic body ([mapdisc exchange --scenario NAME --size N
   --json]), computed in-process as the serve parity tests do *)
let laconic_body name ~size =
  let scen =
    List.find
      (fun (s : Scenario.t) -> String.lowercase_ascii s.Scenario.scen_name = name)
      (Datasets.all ())
  in
  Test_serve.cli_exchange_bytes scen ~size ~seed:42

(* MD5 of [mapdisc exchange --scenario NAME --size 1000 --json]: sweep
   and render output may not drift. Re-recorded when witness sources
   became ground (every reference copies an existing row's cells), after
   engine ≡hom chase and the laconic-is-core property below held on the
   new sources. *)
let laconic_digests =
  [
    ("dblp", "f30b9d3c30a539e97a55890052e4c46f");
    ("mondial", "349a070c4dc0d1f4d79942a5f77ae515");
    ("amalgam", "5f8919c7252e7d2c092442909ffde44f");
    ("3sdb", "0b7f8890ccf02180ac0fd7d0ffbd156d");
    ("ut", "39547a98196fd1bfe3023434f7f83fcf");
    ("hotel", "718a42655d44727fcde6fcb3972dd746");
    ("network", "3a5a5d172dd5ecc75de855775b3abf70");
  ]

let test_laconic_digests () =
  List.iter
    (fun (name, digest) ->
      let body = laconic_body name ~size:1000 in
      Alcotest.(check string)
        (name ^ " laconic body digest")
        digest
        (Digest.to_hex (Digest.string body)))
    laconic_digests

(* The sum of an integer field over the body's per-tgd stats rows. *)
let stats_sum body field =
  let key = "\"" ^ field ^ "\": " in
  let n = String.length key in
  let rec go i acc =
    match String.index_from_opt body i '"' with
    | None -> acc
    | Some j ->
        if j + n <= String.length body && String.sub body j n = key then
          go (j + n) (acc + Scanf.sscanf (String.sub body (j + n) 12) "%d" Fun.id)
        else go (j + 1) acc
  in
  go 0 0

(* A satisfaction-check template with an empty probe key scans its whole
   target relation on every trigger; run first, it made hotel's checks
   quadratic (28 probes per scanned row or check). With templates ordered
   by known positions, failed probes stay within a small multiple of the
   work. Hits are not bounded: on ground sources most join chains
   succeed, so a 5- or 6-atom body probes several times per row. *)
let test_check_probes_bounded () =
  List.iter
    (fun (name, _) ->
      let body = laconic_body name ~size:1000 in
      let misses = stats_sum body "misses"
      and work = stats_sum body "scanned" + stats_sum body "checks" in
      if misses > 3 * work then
        Alcotest.failf "%s: %d failed probes for %d scanned rows and checks"
          name misses work)
    laconic_digests

(* The source, target, tgds and witness source of a scenario file
   without data blocks, built as [mapdisc exchange FILE --size N] builds
   them. *)
let file_inputs file ~size =
  let path =
    if Sys.file_exists file then file else Filename.concat "../../.." file
  in
  let doc = Smg_dsl.Parser.parse_file path in
  let src, tgt = Result.get_ok (Smg_serve.Registry.sides_of_doc doc) in
  let source = src.Smg_core.Discover.schema
  and target = tgt.Smg_core.Discover.schema in
  let best =
    List.hd
      (Smg_core.Discover.discover ~source:src ~target:tgt
         ~corrs:doc.Smg_dsl.Ast.doc_corrs ())
  in
  let rows = max 1 (size / List.length source.Schema.tables) in
  ( source,
    target,
    Mapping.outer_variants ~target best,
    Witness.populate ~rows_per_table:rows ~seed:42 source )

(* employees.smg's outer-join variants overlap: the sweep folds their
   partial rows into the merged ones. *)
let test_employees_sweep_dropped () =
  List.iter
    (fun (size, expected) ->
      let source, target, mappings, inst =
        file_inputs "scenarios/employees.smg" ~size
      in
      match Engine.run ~laconic:true ~source ~target ~mappings inst with
      | Ok rep ->
          Alcotest.(check int)
            (Printf.sprintf "employees size %d" size)
            expected rep.Engine.r_sweep_dropped
      | Error m -> Alcotest.fail m)
    [ (64, 50); (1000, 986) ]

(* On a ground source a laconic mapping's output is the core universal
   solution (ten Cate et al., Laconic schema mappings): the laconic
   output is ≡hom the chase and holds exactly as many tuples as the
   chase's core, on every built-in's witness source and on
   employees.smg. *)
let test_laconic_is_core () =
  let check what ~source ~target ~mappings inst =
    match
      ( Engine.run ~laconic:true ~source ~target ~mappings inst,
        Chase.exchange ~source ~target ~mappings inst )
    with
    | Ok rep, Chase.Saturated i ->
        Alcotest.(check bool) (what ^ ": laconic ≡hom chase") true
          (hom_equiv rep.Engine.r_target i);
        Alcotest.(check int)
          (what ^ ": laconic tuples = core tuples")
          (Instance.total_tuples (Icore.core i))
          (Instance.total_tuples rep.Engine.r_target)
    | Error m, _ -> Alcotest.fail (what ^ ": engine failed: " ^ m)
    | Ok _, _ -> Alcotest.fail (what ^ ": chase did not saturate")
  in
  List.iter
    (fun (scen : Scenario.t) ->
      let source = scen.Scenario.source.Smg_core.Discover.schema
      and target = scen.Scenario.target.Smg_core.Discover.schema in
      let mappings = Smg_serve.Registry.scenario_tgds scen in
      List.iter
        (fun size ->
          let rows = max 1 (size / List.length source.Schema.tables) in
          check
            (Printf.sprintf "%s at size %d" scen.Scenario.scen_name size)
            ~source ~target ~mappings
            (Witness.populate ~rows_per_table:rows ~seed:42 source))
        [ 64; 300 ])
    (Datasets.all ());
  let source, target, mappings, inst =
    file_inputs "scenarios/employees.smg" ~size:300
  in
  check "employees at size 300" ~source ~target ~mappings inst

(* ---- allocation guard -------------------------------------------------- *)

(* The generated exchange fixture perfbench times (its [Inputs] params,
   and the best candidate of every per-table case as its tgds), at
   scale 10^4: about 10^4 source tuples, 1.3x10^4 triggers and 10^4
   target tuples. *)
let generated_fixture ~scale =
  let module Gen = Smg_generate.Gen in
  let module Params = Smg_generate.Params in
  let module Discover = Smg_core.Discover in
  let g =
    Gen.build
      (Params.clamp
         {
           Params.seed = 42;
           isa_depth = 1;
           n_roots = 3;
           reify = 2;
           partof = 1;
           attrs_per_class = 2;
           corr_density = 0.5;
           scale;
         })
  in
  let target = g.Gen.g_target.Discover.schema in
  let tgds =
    List.concat_map
      (fun (tbl, corrs) ->
        match
          Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
            ~corrs ()
        with
        | [] -> []
        | best :: _ ->
            Mapping.outer_variants ~target (Mapping.rename tbl best))
      g.Gen.g_cases
  in
  (g.Gen.g_source.Discover.schema, target, tgds, Gen.source_instance g)

(* Minor words a repeat execution allocates per target tuple: the
   trigger loop (scan, probe, satisfaction check, fire) allocates
   nothing per trigger, so what is left is materializing the boxed
   target and fixed per-run set-up. It measured 17.2 words; the bound
   sits 1.25x above, below what one small closure per trigger (four
   words or more, 1.3 triggers per tuple) would add. *)
let test_exchange_allocation () =
  let source, target, mappings, inst = generated_fixture ~scale:10_000 in
  let compiled =
    match
      Engine.compile ~card:(Instance.cardinality inst) ~source ~target
        ~mappings ()
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let run () =
    match Engine.execute ~shards:1 compiled inst with
    | Engine.Complete r -> r
    | _ -> Alcotest.fail "execution did not complete"
  in
  (* the first run interns the source and warms the coded-arena cache *)
  ignore (run ());
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  let tuples = Instance.total_tuples r.Engine.r_target in
  Alcotest.(check bool) "about 10^4 target tuples" true (tuples > 9_000);
  let per_tuple = words /. float_of_int tuples in
  if per_tuple > 21.5 then
    Alcotest.failf "%.1f minor words per target tuple (bound 21.5)" per_tuple

let scenario_tgds (scen : Scenario.t) =
  List.concat_map
    (fun (c : Scenario.case) -> List.map Mapping.to_tgd c.Scenario.benchmark)
    scen.Scenario.cases

let check_domain ~laconic (scen : Scenario.t) () =
  let source = scen.Scenario.source.Smg_core.Discover.schema in
  let target = scen.Scenario.target.Smg_core.Discover.schema in
  let mappings = scenario_tgds scen in
  let inst = Witness.populate ~rows_per_table:3 ~seed:7 source in
  let fast = Engine.run ~laconic ~source ~target ~mappings inst in
  let naive = Chase.exchange ~source ~target ~mappings inst in
  match (fast, naive) with
  | Ok rep, Chase.Saturated i ->
      Alcotest.(check bool)
        (scen.Scenario.scen_name ^ ": engine ≡hom chase")
        true
        (hom_equiv rep.Engine.r_target i)
  | Error _, Chase.Failed _ -> ()
  | Ok _, Chase.Failed m ->
      Alcotest.fail (Printf.sprintf "chase failed (%s) but engine succeeded" m)
  | Error m, _ -> Alcotest.fail ("engine failed: " ^ m)
  | _, Chase.Bounded _ -> Alcotest.fail "chase did not saturate"

let test_outer_variants () =
  (* Example 1.2's outer mapping realised as Skolemized variants: the
     engine must reproduce the chase's full-outer-join result *)
  let ms =
    Smg_core.Discover.discover
      ~source:(Fixtures.Employees.source ())
      ~target:(Fixtures.Employees.target ())
      ~corrs:Fixtures.Employees.corrs ()
  in
  let m = List.hd ms in
  let tgds =
    Mapping.outer_variants ~target:Fixtures.Employees.target_schema m
  in
  let i =
    Instance.add_tuple Instance.empty "programmer"
      ~header:[ "ssn"; "name"; "acnt" ]
      [| vs "1"; vs "ada"; vs "acnt1" |]
    |> fun i ->
    Instance.add_tuple i "engineer" ~header:[ "ssn"; "name"; "site" ]
      [| vs "1"; vs "ada"; vs "site1" |]
    |> fun i ->
    Instance.add_tuple i "engineer" ~header:[ "ssn"; "name"; "site" ]
      [| vs "2"; vs "bob"; vs "site2" |]
  in
  let source = Fixtures.Employees.source_schema in
  let target = Fixtures.Employees.target_schema in
  match
    ( Engine.run ~source ~target ~mappings:tgds i,
      Chase.exchange ~source ~target ~mappings:tgds i )
  with
  | Ok rep, Chase.Saturated out ->
      Alcotest.(check int) "two employees (ada merged, bob kept)" 2
        (Instance.cardinality rep.Engine.r_target "employee");
      Alcotest.(check bool) "engine ≡hom chase" true
        (hom_equiv rep.Engine.r_target out)
  | Error m, _ -> Alcotest.fail ("engine failed: " ^ m)
  | _ -> Alcotest.fail "chase should saturate"

let domain_tests =
  List.concat_map
    (fun (scen : Scenario.t) ->
      [
        Alcotest.test_case
          (scen.Scenario.scen_name ^ " engine ≡hom chase")
          `Quick
          (check_domain ~laconic:false scen);
        Alcotest.test_case
          (scen.Scenario.scen_name ^ " laconic ≡hom chase")
          `Quick
          (check_domain ~laconic:true scen);
      ])
    (Datasets.all ())

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "exchange plan",
      [
        Alcotest.test_case "plan shape" `Quick test_plan_shape;
        Alcotest.test_case "join order" `Quick test_plan_join_order;
        Alcotest.test_case "bad arity" `Quick test_plan_rejects_bad_arity;
      ] );
    ( "exchange engine",
      [
        Alcotest.test_case "simple run" `Quick test_engine_simple;
        Alcotest.test_case "key conflict" `Quick test_engine_key_conflict;
        Alcotest.test_case "egd merges null" `Quick test_engine_egd_merges_null;
        Alcotest.test_case "egd on a composite key" `Quick
          test_engine_egd_composite_key;
        Alcotest.test_case "stats" `Quick test_engine_stats;
        Alcotest.test_case "skolem merge" `Quick test_skolem_merge;
        Alcotest.test_case "outer variants" `Quick test_outer_variants;
        Alcotest.test_case "allocation per target tuple" `Quick
          test_exchange_allocation;
        q prop_satisfies;
        q prop_chase_equiv;
      ] );
    ( "exchange laconic",
      [
        Alcotest.test_case "prepare dedups" `Quick test_laconic_prepare_dedups;
        Alcotest.test_case "prepare minimizes" `Quick
          test_laconic_prepare_minimizes;
        Alcotest.test_case "sweep" `Quick test_laconic_sweep;
        Alcotest.test_case "near-core" `Quick test_laconic_near_core;
        q prop_laconic_embeds;
        q prop_sweep_reference;
        q prop_sweep_coded_rows;
        Alcotest.test_case "sweep 70 columns" `Quick test_laconic_sweep_wide;
        Alcotest.test_case "sweep 10^5 mixed rows (time guard)" `Quick
          test_laconic_sweep_mixed_scale;
        Alcotest.test_case "employees sweep_dropped" `Quick
          test_employees_sweep_dropped;
        Alcotest.test_case "body digests (size 1000)" `Quick
          test_laconic_digests;
        Alcotest.test_case "check probes bounded (size 1000)" `Quick
          test_check_probes_bounded;
        Alcotest.test_case "laconic output is the core" `Quick
          test_laconic_is_core;
      ] );
    ("exchange domains", domain_tests);
  ]
