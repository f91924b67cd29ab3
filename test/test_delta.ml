(* Tests for Smg_delta: the batch wire format, skolemization, and
   incremental maintenance — counting retraction, null collection, the
   key-egd layer under inserts and deletes — against the oracle of a
   full re-chase of the maintained source, plus a qcheck property over
   generated scenarios at 1 and 4 domains. *)

module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Dependency = Smg_cq.Dependency
module Engine = Smg_exchange.Engine
module Plan = Smg_exchange.Plan
module Batch = Smg_delta.Batch
module Maintain = Smg_delta.Maintain
module Skolemize = Smg_delta.Skolemize
module Pool = Smg_parallel.Pool
module Render = Smg_serve.Render
module Gen = Smg_generate.Gen
module Params = Smg_generate.Params

let v = Atom.v
let a = Atom.atom
let vs s = Value.VString s
let hom_equiv = Smg_verify.Equiv.equivalent

let contains_sub s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let fuzz_count default =
  match Sys.getenv_opt "SMG_FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n -> min n default | None -> default)
  | None -> default

(* ---- fixture ------------------------------------------------------------ *)

let fsource =
  Schema.make ~name:"dsrc"
    [
      Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "u" [ ("b", Schema.TString) ];
    ]
    []

let ftarget =
  Schema.make ~name:"dtgt"
    [
      Schema.table ~key:[ "a" ] "s"
        [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "t" [ ("b", Schema.TString); ("c", Schema.TString) ];
    ]
    []

let ftgds =
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

let inst_of rows =
  List.fold_left
    (fun acc (name, header, tup) ->
      Instance.add_tuple acc name ~header (Array.of_list (List.map vs tup)))
    Instance.empty rows

let r_header = [ "a"; "b" ]
let u_header = [ "b" ]

let base_inst =
  inst_of
    [
      ("r", r_header, [ "a1"; "b1" ]);
      ("r", r_header, [ "a2"; "b2" ]);
      ("u", u_header, [ "b1" ]);
    ]

let prepare_exn ?(source = fsource) ?(target = ftarget) tgds =
  match Maintain.prepare ~source ~target ~mappings:tgds () with
  | Ok c -> c
  | Error m -> Alcotest.failf "prepare: %s" m

let init_exn ?shards compiled inst =
  match Maintain.init ?shards compiled inst with
  | Ok st -> st
  | Error m -> Alcotest.failf "init: %s" m

let apply_exn st batch =
  match Maintain.apply st batch with
  | Ok (st, c) -> (st, c)
  | Error m -> Alcotest.failf "apply: %s" m

let rebuild ?pool compiled inst =
  match Engine.execute ?pool compiled inst with
  | Engine.Complete r -> r
  | Engine.Budget_exhausted _ -> Alcotest.fail "rebuild exhausted"
  | Engine.Failed m -> Alcotest.failf "rebuild: %s" m

let check_equiv_rebuild msg st =
  let compiled_target = (Maintain.report st).Engine.r_target in
  let fresh =
    rebuild
      (prepare_exn ftgds)
      (Maintain.source st)
  in
  if not (hom_equiv compiled_target fresh.Engine.r_target) then
    Alcotest.failf "%s: maintained target not ≡hom a full re-chase" msg

(* ---- batch wire format -------------------------------------------------- *)

let test_batch_parse () =
  let text =
    "# a comment\n\n+ r(a3, \"b three, \\\"quoted\\\"\")\n- u(b1)\n+ u(b9)\n"
  in
  match Batch.parse ~schema:fsource text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok ops ->
      Alcotest.(check int) "ops" 3 (List.length ops);
      let ins, del = Batch.counts ops in
      Alcotest.(check int) "inserts" 2 ins;
      Alcotest.(check int) "deletes" 1 del;
      (match List.hd ops with
      | Batch.Insert ("r", tup) ->
          Alcotest.(check string)
            "quoted string" "b three, \"quoted\""
            (match tup.(1) with Value.VString s -> s | _ -> "?")
      | _ -> Alcotest.fail "expected insert into r");
      (* render → reparse round-trips *)
      let text' = Batch.to_string ops in
      (match Batch.parse ~schema:fsource text' with
      | Ok ops' -> Alcotest.(check bool) "round-trip" true (ops = ops')
      | Error m -> Alcotest.failf "reparse: %s" m)

let test_batch_errors () =
  let bad text frag =
    match Batch.parse ~schema:fsource text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error m ->
        if not (contains_sub m frag) then
          Alcotest.failf "error %S lacks %S" m frag
  in
  bad "+ nosuch(1)" "unknown source table";
  bad "+ r(onlyone)" "expects 2 values";
  bad "* r(a, b)" "expected '+' or '-'";
  bad "+ r(a, \"unterminated)" "unterminated"

(* ---- skolemization ------------------------------------------------------ *)

let test_skolemize () =
  let compiled = prepare_exn ftgds in
  List.iter
    (fun (p : Plan.t) ->
      Alcotest.(check int)
        (p.Plan.p_name ^ " mints no anonymous nulls")
        0 p.Plan.p_nnulls)
    compiled.Engine.c_plans;
  (* skolemized plans executed in bulk are ≡hom the restricted chase *)
  let plain =
    match
      Engine.run ~source:fsource ~target:ftarget ~mappings:ftgds base_inst
    with
    | Ok r -> r.Engine.r_target
    | Error m -> Alcotest.failf "plain run: %s" m
  in
  let skolem = (rebuild compiled base_inst).Engine.r_target in
  Alcotest.(check bool) "skolem ≡hom restricted" true (hom_equiv plain skolem)

(* ---- maintenance -------------------------------------------------------- *)

let test_init_matches_bulk () =
  let compiled = prepare_exn ftgds in
  let st = init_exn compiled base_inst in
  let bulk = (rebuild compiled base_inst).Engine.r_target in
  Alcotest.(check bool)
    "init target ≡hom bulk" true
    (hom_equiv (Maintain.target st) bulk);
  check_equiv_rebuild "init" st

let test_insert_delete_equiv () =
  let compiled = prepare_exn ftgds in
  let st = init_exn compiled base_inst in
  let batch =
    [
      Batch.Insert ("r", [| vs "a3"; vs "b2" |]);
      Batch.Insert ("u", [| vs "b2" |]);
      Batch.Delete ("u", [| vs "b1" |]);
    ]
  in
  let st, c = apply_exn st batch in
  Alcotest.(check int) "src inserted" 2 c.Maintain.mc_src_inserted;
  Alcotest.(check int) "src deleted" 1 c.Maintain.mc_src_deleted;
  check_equiv_rebuild "after batch" st;
  (* idempotence: re-inserting and re-deleting the same tuples is a
     no-op batch *)
  let st, c2 =
    apply_exn st
      [
        Batch.Insert ("r", [| vs "a3"; vs "b2" |]);
        Batch.Delete ("u", [| vs "b1" |]);
      ]
  in
  Alcotest.(check int) "no-op inserts" 0 c2.Maintain.mc_src_inserted;
  Alcotest.(check int) "no-op deletes" 0 c2.Maintain.mc_src_deleted;
  check_equiv_rebuild "after no-op" st

(* A delete that removes a null's last supporting derivation must
   retract every fact carrying the null — the null disappears from the
   maintained target entirely. *)
let test_null_collected () =
  let source =
    Schema.make ~name:"nsrc" [ Schema.table "n" [ ("x", Schema.TString) ] ] []
  in
  let target =
    Schema.make ~name:"ntgt"
      [
        Schema.table "p" [ ("x", Schema.TString); ("y", Schema.TString) ];
        Schema.table "q" [ ("y", Schema.TString) ];
      ]
      []
  in
  let tgds =
    [
      Dependency.tgd ~name:"share"
        ~lhs:[ a "n" [ v "x" ] ]
        [ a "p" [ v "x"; v "y" ] ; a "q" [ v "y" ] ];
    ]
  in
  let compiled = prepare_exn ~source ~target tgds in
  let inst =
    List.fold_left
      (fun acc x ->
        Instance.add_tuple acc "n" ~header:[ "x" ] [| vs x |])
      Instance.empty [ "a"; "b" ]
  in
  let st = init_exn compiled inst in
  let nulls_of inst =
    List.fold_left
      (fun acc name ->
        match Instance.relation inst name with
        | None -> acc
        | Some r ->
            List.fold_left
              (fun acc tup ->
                Array.fold_left
                  (fun acc v ->
                    match v with Value.VNull k -> k :: acc | _ -> acc)
                  acc tup)
              acc r.Instance.tuples)
      [] (Instance.names inst)
    |> List.sort_uniq compare
  in
  let before = nulls_of (Maintain.target st) in
  Alcotest.(check int) "two shared nulls" 2 (List.length before);
  let st, c = apply_exn st [ Batch.Delete ("n", [| vs "a" |]) ] in
  Alcotest.(check int) "facts retracted" 2 c.Maintain.mc_facts_retracted;
  Alcotest.(check int) "null collected" 1 c.Maintain.mc_nulls_collected;
  let after = nulls_of (Maintain.target st) in
  Alcotest.(check int) "one null left" 1 (List.length after);
  Alcotest.(check int)
    "target facts" 2
    (Instance.total_tuples (Maintain.target st))

(* Counting: a fact emitted by several derivations survives until the
   last one dies. *)
let test_shared_support () =
  let source =
    Schema.make ~name:"wsrc"
      [ Schema.table "w" [ ("x", Schema.TString); ("y", Schema.TString) ] ]
      []
  in
  let target =
    Schema.make ~name:"wtgt" [ Schema.table "o" [ ("x", Schema.TString) ] ] []
  in
  let tgds =
    [
      Dependency.tgd ~name:"proj"
        ~lhs:[ a "w" [ v "x"; v "y" ] ]
        [ a "o" [ v "x" ] ];
    ]
  in
  let compiled = prepare_exn ~source ~target tgds in
  let inst =
    inst_of
      [
        ("w", [ "x"; "y" ], [ "k"; "1" ]);
        ("w", [ "x"; "y" ], [ "k"; "2" ]);
      ]
  in
  let st = init_exn compiled inst in
  Alcotest.(check int) "one fact" 1 (Instance.total_tuples (Maintain.target st));
  let st, c = apply_exn st [ Batch.Delete ("w", [| vs "k"; vs "1" |]) ] in
  Alcotest.(check int) "not retracted yet" 0 c.Maintain.mc_facts_retracted;
  Alcotest.(check int) "still there" 1 (Instance.total_tuples (Maintain.target st));
  let st, c = apply_exn st [ Batch.Delete ("w", [| vs "k"; vs "2" |]) ] in
  Alcotest.(check int) "retracted" 1 c.Maintain.mc_facts_retracted;
  Alcotest.(check int) "gone" 0 (Instance.total_tuples (Maintain.target st))

(* Key egds: inserts merge nulls incrementally; a retraction of facts
   from a keyed table forces the substitution rebuild — both states
   must agree with a full re-chase. *)
let test_egd_paths () =
  let compiled = prepare_exn ftgds in
  let st = init_exn compiled base_inst in
  (* m1 and m3 both emit s(a1, _): the egd binds m3's skolem null to
     b1, so the maintained report must show merges *)
  let r = Maintain.report st in
  Alcotest.(check bool) "merges happened" true (r.Engine.r_egd_merges > 0);
  check_equiv_rebuild "egd init" st;
  (* retraction touching the keyed table: u(b1) supports m3 *)
  let st, c = apply_exn st [ Batch.Delete ("u", [| vs "b1" |]) ] in
  Alcotest.(check bool) "egd rebuilt" true (c.Maintain.mc_egd_rebuilds > 0);
  check_equiv_rebuild "egd retract" st;
  (* and growing it back *)
  let st, _ = apply_exn st [ Batch.Insert ("u", [| vs "b1" |]) ] in
  check_equiv_rebuild "egd reinsert" st

(* Non-default shard counts are invisible to maintenance: the same
   insert/delete/egd sequence at shards 3 and 7 stays ≡hom a full
   re-chase at every step and lands on the same maintained target as
   the single-shard state. *)
let test_sharded_maintenance () =
  let compiled = prepare_exn ftgds in
  let batches =
    [
      [ Batch.Insert ("r", [| vs "a3"; vs "b2" |]); Batch.Insert ("u", [| vs "b2" |]) ];
      [ Batch.Delete ("u", [| vs "b1" |]) ];
      [ Batch.Insert ("u", [| vs "b1" |]); Batch.Delete ("r", [| vs "a2"; vs "b2" |]) ];
    ]
  in
  let final_target shards =
    let st = init_exn ?shards compiled base_inst in
    List.fold_left
      (fun st batch ->
        let st, _ = apply_exn st batch in
        check_equiv_rebuild
          (Printf.sprintf "shards=%s"
             (match shards with None -> "default" | Some s -> string_of_int s))
          st;
        st)
      st batches
    |> Maintain.target
  in
  let reference = final_target None in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "maintained target ≡hom at %d shard(s)" s)
        true
        (hom_equiv reference (final_target (Some s))))
    [ 3; 7 ]

let test_conflict_poisons () =
  let source =
    Schema.make ~name:"csrc"
      [ Schema.table "c" [ ("k", Schema.TString); ("v", Schema.TString) ] ]
      []
  in
  let target =
    Schema.make ~name:"ctgt"
      [
        Schema.table ~key:[ "k" ] "d"
          [ ("k", Schema.TString); ("v", Schema.TString) ];
      ]
      []
  in
  let tgds =
    [
      Dependency.tgd ~name:"copy"
        ~lhs:[ a "c" [ v "k"; v "x" ] ]
        [ a "d" [ v "k"; v "x" ] ];
    ]
  in
  let compiled = prepare_exn ~source ~target tgds in
  let st = init_exn compiled (inst_of [ ("c", [ "k"; "v" ], [ "k1"; "x" ]) ]) in
  (match Maintain.apply st [ Batch.Insert ("c", [| vs "k1"; vs "y" |]) ] with
  | Ok _ -> Alcotest.fail "constant/constant conflict accepted"
  | Error m ->
      Alcotest.(check bool) "names the egd" true (contains_sub m "key egd"));
  match Maintain.apply st [] with
  | Ok _ -> Alcotest.fail "poisoned state accepted a batch"
  | Error m ->
      Alcotest.(check bool) "poisoned" true (contains_sub m "poisoned")

(* ---- the incremental key-egd check --------------------------------------- *)

(* Two independent routes to one keyed table: [m1] copies [r], [m4]
   invents the non-key column of every [v] key, so a key shared by [r]
   and [v] merges a Skolem null into [r]'s constant. *)
let ksource =
  Schema.make ~name:"ksrc"
    [
      Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "u" [ ("b", Schema.TString) ];
      Schema.table "v" [ ("a", Schema.TString) ];
    ]
    []

let ktarget =
  Schema.make ~name:"ktgt"
    [
      Schema.table ~key:[ "a" ] "s"
        [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table ~key:[ "b" ] "t"
        [ ("b", Schema.TString); ("c", Schema.TString) ];
    ]
    []

let ktgds_pool =
  [
    Dependency.tgd ~name:"m1" ~lhs:[ a "r" [ v "x"; v "y" ] ] [ a "s" [ v "x"; v "y" ] ];
    Dependency.tgd ~name:"m2" ~lhs:[ a "u" [ v "y" ] ] [ a "t" [ v "y"; v "z" ] ];
    Dependency.tgd ~name:"m3"
      ~lhs:[ a "r" [ v "x"; v "y" ]; a "u" [ v "y" ] ]
      [ a "s" [ v "x"; v "w" ]; a "t" [ v "w"; v "c" ] ];
    Dependency.tgd ~name:"m4" ~lhs:[ a "v" [ v "x" ] ] [ a "s" [ v "x"; v "w" ] ];
    Dependency.tgd ~name:"m5"
      ~lhs:[ a "r" [ v "x"; v "y" ]; a "v" [ v "x" ] ]
      [ a "t" [ v "y"; v "x" ] ];
  ]

let sorted_facts inst =
  List.sort compare
    (List.concat_map
       (fun name ->
         match Instance.relation inst name with
         | None -> []
         | Some r -> List.map (fun t -> (name, t)) r.Instance.tuples)
       (Instance.names inst))

(* The maintained state against a fresh [init] over its own source:
   both fail, or both succeed with the same facts (≡hom as fallback). *)
let agrees_with_fresh compiled st outcome =
  match (outcome, Maintain.init compiled (Maintain.source st)) with
  | Error _, Error _ -> Ok ()
  | Error m, Ok _ -> Error ("maintained failed, fresh init succeeds: " ^ m)
  | Ok (), Error m -> Error ("fresh init fails, maintained succeeds: " ^ m)
  | Ok (), Ok fresh ->
      let mine = Maintain.target st and theirs = Maintain.target fresh in
      if sorted_facts mine = sorted_facts theirs || hom_equiv mine theirs then
        Ok ()
      else Error "maintained target differs from a fresh init"

let check_agrees msg compiled st outcome =
  match agrees_with_fresh compiled st outcome with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" msg m

let kinst rows =
  List.fold_left
    (fun acc (name, tup) ->
      let header =
        match name with "r" -> [ "a"; "b" ] | "u" -> [ "b" ] | _ -> [ "a" ]
      in
      Instance.add_tuple acc name ~header (Array.of_list (List.map vs tup)))
    Instance.empty rows

(* A keyed retraction under a non-empty substitution recomputes it and
   must leave the key index current: the next insert-only batch's key
   collision with a surviving fact has to merge (or conflict) exactly
   as a fresh init over the maintained source does. *)
let test_stale_index_after_recompute () =
  let compiled =
    prepare_exn ~source:ksource ~target:ktarget
      (List.filter
         (fun (t : Dependency.tgd) -> List.mem t.Dependency.tgd_name [ "m1"; "m4" ])
         ktgds_pool)
  in
  let st =
    init_exn compiled
      (kinst
         [
           ("r", [ "a1"; "b1" ]); ("v", [ "a1" ]);
           ("r", [ "a2"; "b2" ]); ("v", [ "a2" ]);
         ])
  in
  Alcotest.(check int)
    "init merges both invented values" 2
    (Maintain.report st).Engine.r_egd_merges;
  (* s(a1, b1) goes; s(a1, W1) survives with its binding rolled back *)
  let st, c = apply_exn st [ Batch.Delete ("r", [| vs "a1"; vs "b1" |]) ] in
  Alcotest.(check int) "substitution recomputed" 1 c.Maintain.mc_egd_rebuilds;
  check_agrees "after the recompute" compiled st (Ok ());
  (* s(a1, b5) collides with the surviving s(a1, W1) *)
  let st, c = apply_exn st [ Batch.Insert ("r", [| vs "a1"; vs "b5" |]) ] in
  Alcotest.(check int) "the collision merges" 1 c.Maintain.mc_egd_merges;
  check_agrees "after the colliding insert" compiled st (Ok ());
  (* s(a2, b7) collides with s(a2, b2): constant against constant *)
  match Maintain.apply st [ Batch.Insert ("r", [| vs "a2"; vs "b7" |]) ] with
  | Ok _ -> Alcotest.fail "constant/constant key collision accepted"
  | Error m ->
      Alcotest.(check bool) "names the egd" true (contains_sub m "key egd");
      check_agrees "after the conflict" compiled st (Error m)

(* Churn leaves tombstoned fact rows behind until they outnumber the
   live state and the fact tables compact, renumbering the rows that
   derivations and key indexes hold: support counting, retraction and
   the key check must carry on exactly as before. Each round keeps one
   of its facts, so live rows sit past dead ones and really move. *)
let test_fact_rows_compact_under_churn () =
  let compiled =
    prepare_exn ~source:ksource ~target:ktarget
      (List.filter
         (fun (t : Dependency.tgd) -> List.mem t.Dependency.tgd_name [ "m1"; "m4" ])
         ktgds_pool)
  in
  (* no merges yet: retractions keep the standing key index instead of
     recomputing it *)
  let st =
    ref (init_exn compiled (kinst [ ("r", [ "a1"; "b1" ]); ("r", [ "a2"; "b2" ]) ]))
  in
  let row round i =
    let k = Printf.sprintf "c%d_%d" round i in
    ("r", [| vs k; vs ("d" ^ k) |])
  in
  for round = 1 to 12 do
    let rows = List.init 100 (row round) in
    let apply ops = st := fst (apply_exn !st ops) in
    apply (List.map (fun (n, t) -> Batch.Insert (n, t)) rows);
    apply (List.map (fun (n, t) -> Batch.Delete (n, t)) (List.tl rows))
  done;
  let st = !st in
  check_agrees "after the churn" compiled st (Ok ());
  Alcotest.(check (triple int int int))
    "live facts, derivations and nulls as after a fresh init"
    (Maintain.live_stats (init_exn compiled (Maintain.source st)))
    (Maintain.live_stats st);
  (* the key index kept its renumbered rows: v(c7_0)'s invented value
     merges into s(c7_0, dc7_0) *)
  let st, c = apply_exn st [ Batch.Insert ("v", [| vs "c7_0" |]) ] in
  Alcotest.(check int) "merged through the index" 1 c.Maintain.mc_egd_merges;
  check_agrees "merge after compaction" compiled st (Ok ());
  (* retraction follows the renumbered derivation rows *)
  let victim = snd (row 5 0) in
  let st, c = apply_exn st [ Batch.Delete ("r", victim) ] in
  Alcotest.(check int) "one fact retracted" 1 c.Maintain.mc_facts_retracted;
  check_agrees "retraction after compaction" compiled st (Ok ());
  (* s(a2, b5) collides with s(a2, b2) *)
  match Maintain.apply st [ Batch.Insert ("r", [| vs "a2"; vs "b5" |]) ] with
  | Ok _ -> Alcotest.fail "a key collision after compaction went unseen"
  | Error m -> check_agrees "collision after compaction" compiled st (Error m)

(* The incremental check pays for the batch: one insert into a keyed
   table of 10^4 facts examines O(1) facts, where a full pass examines
   them all. *)
let test_egd_checked_is_per_batch () =
  let source =
    Schema.make ~name:"csrc"
      [ Schema.table "c" [ ("k", Schema.TString); ("v", Schema.TString) ] ]
      []
  in
  let target =
    Schema.make ~name:"ctgt"
      [
        Schema.table ~key:[ "k" ] "d"
          [ ("k", Schema.TString); ("v", Schema.TString) ];
      ]
      []
  in
  let tgds =
    [
      Dependency.tgd ~name:"copy"
        ~lhs:[ a "c" [ v "k"; v "x" ] ]
        [ a "d" [ v "k"; v "x" ] ];
    ]
  in
  let n = 10_000 in
  let inst =
    List.fold_left
      (fun acc i ->
        Instance.add_tuple acc "c" ~header:[ "k"; "v" ]
          [| vs (Printf.sprintf "k%d" i); vs "x" |])
      Instance.empty (List.init n Fun.id)
  in
  let st = init_exn (prepare_exn ~source ~target tgds) inst in
  Alcotest.(check int)
    "init checks every keyed fact" n (Maintain.totals st).Maintain.mc_egd_checked;
  let st, c = apply_exn st [ Batch.Insert ("c", [| vs "knew"; vs "y" |]) ] in
  Alcotest.(check int) "one insert checks one fact" 1 c.Maintain.mc_egd_checked;
  let _, c = apply_exn st [ Batch.Delete ("c", [| vs "k7"; vs "x" |]) ] in
  Alcotest.(check int) "a retraction without bindings checks none" 0
    c.Maintain.mc_egd_checked

(* Random keyed scenarios: a nonempty subset of the tgd pool over a
   small value domain (so keys collide, merge and conflict), then a
   random sequence of insert/delete batches; after every batch the
   maintained state must agree with a fresh init over its source. *)
let gen_keyed =
  QCheck.Gen.(
    let tuple name =
      let av = map (Printf.sprintf "a%d") (int_bound 5)
      and bv = map (Printf.sprintf "b%d") (int_bound 3) in
      match name with
      | "r" -> map2 (fun x y -> (name, [ x; y ])) av bv
      | "u" -> map (fun y -> (name, [ y ])) bv
      | _ -> map (fun x -> (name, [ x ])) av
    in
    let row = oneofl [ "r"; "u"; "v" ] >>= tuple in
    let op = pair bool row in
    let* mask = int_range 1 31 in
    let* base = list_size (int_bound 8) row in
    let* batches = list_size (int_range 1 5) (list_size (int_range 1 4) op) in
    return (mask, base, batches))

let print_keyed (mask, base, batches) =
  let row (name, vals) = Printf.sprintf "%s(%s)" name (String.concat "," vals) in
  Printf.sprintf "tgds mask %d; base [%s]; batches [%s]" mask
    (String.concat "; " (List.map row base))
    (String.concat " | "
       (List.map
          (fun b ->
            String.concat " "
              (List.map (fun (ins, r) -> (if ins then "+" else "-") ^ row r) b))
          batches))

let prop_keyed_batches_match_fresh_init =
  QCheck.Test.make
    ~name:"keyed batches: maintained target = a fresh init over its source"
    ~count:(fuzz_count 200)
    (QCheck.make gen_keyed ~print:print_keyed)
    (fun (mask, base, batches) ->
      let tgds = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) ktgds_pool in
      let compiled = prepare_exn ~source:ksource ~target:ktarget tgds in
      match Maintain.init compiled (kinst base) with
      | Error _ -> true  (* a conflicting base: init's own contract *)
      | Ok st ->
          let rec go = function
            | [] -> true
            | ops :: rest -> (
                let batch =
                  List.map
                    (fun (ins, (name, vals)) ->
                      let tup = Array.of_list (List.map vs vals) in
                      if ins then Batch.Insert (name, tup) else Batch.Delete (name, tup))
                    ops
                in
                let outcome =
                  match Maintain.apply st batch with
                  | Ok _ -> Ok ()
                  | Error m -> Error m
                in
                match agrees_with_fresh compiled st outcome with
                | Error m -> QCheck.Test.fail_report m
                | Ok () -> Result.is_ok outcome && go rest || Result.is_error outcome)
          in
          go batches)

(* ---- property: generated scenarios -------------------------------------- *)

let gen_params =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* isa_depth = int_bound 2 in
    let* n_roots = int_range 1 3 in
    let* reify = int_bound 2 in
    let* attrs_per_class = int_range 1 3 in
    let* dens = int_range 5 10 in
    let* scale = int_range 20 60 in
    return
      {
        Params.seed;
        isa_depth;
        n_roots;
        reify;
        partof = 1;
        attrs_per_class;
        corr_density = float_of_int dens /. 10.;
        scale;
      })

let arb_params =
  QCheck.make gen_params ~print:(fun p -> Fmt.str "%a" Params.pp p)

let discovered_tgds g =
  match
    Smg_core.Discover.discover ~source:g.Gen.g_source ~target:g.Gen.g_target
      ~corrs:g.Gen.g_corrs ()
  with
  | [] -> []
  | best :: _ ->
      Smg_cq.Mapping.outer_variants
        ~target:g.Gen.g_target.Smg_core.Discover.schema best

(* Split the instance's tuples deterministically: every [k]-th tuple of
   each relation goes to the second component. *)
let split_inst k inst =
  List.fold_left
    (fun (kept, out) name ->
      match Instance.relation inst name with
      | None -> (kept, out)
      | Some r ->
          let keep, drop =
            List.partition
              (fun tup -> Hashtbl.hash (Instance.tuple_key tup) mod k <> 0)
              r.Instance.tuples
          in
          let kept =
            if keep = [] then kept
            else Instance.set kept name { r with Instance.tuples = keep }
          in
          ((kept : Instance.t), (name, r.Instance.header, drop) :: out))
    (Instance.empty, []) (Instance.names inst)

let prop_maintain_equiv =
  QCheck.Test.make
    ~name:
      "maintained target ≡hom full re-chase on generated scenarios; \
       rebuild bytes identical at 1 and 4 domains"
    ~count:(fuzz_count 25) arb_params (fun p ->
      let g = Gen.build p in
      match discovered_tgds g with
      | [] -> true
      | tgds -> (
          let source = g.Gen.g_source.Smg_core.Discover.schema in
          let target = g.Gen.g_target.Smg_core.Discover.schema in
          match Maintain.prepare ~source ~target ~mappings:tgds () with
          | Error m -> QCheck.Test.fail_reportf "prepare: %s" m
          | Ok compiled -> (
              let full = Gen.source_instance g in
              (* start from a strict subset, then batch the withheld
                 tuples back in while deleting a slice of the base *)
              let base, withheld = split_inst 3 full in
              let _, doomed = split_inst 5 base in
              let batch =
                List.concat_map
                  (fun (name, _, tuples) ->
                    List.map (fun t -> Batch.Insert (name, t)) tuples)
                  withheld
                @ List.concat_map
                    (fun (name, _, tuples) ->
                      List.map (fun t -> Batch.Delete (name, t)) tuples)
                    doomed
              in
              (* doomed ⊆ base and base ∩ withheld = ∅, so the post-batch
                 source is just [full] minus the doomed tuples *)
              let final_expected =
                List.fold_left
                  (fun inst (name, _, tuples) ->
                    match Instance.relation inst name with
                    | None -> inst
                    | Some r ->
                        let dead =
                          List.map Instance.tuple_key tuples
                        in
                        let keep =
                          List.filter
                            (fun t ->
                              not
                                (List.mem
                                   (Instance.tuple_key t)
                                   dead))
                            r.Instance.tuples
                        in
                        Instance.set inst name
                          { r with Instance.tuples = keep })
                  full doomed
              in
              (* a key-egd conflict is a legitimate outcome on generated
                 data — the property then is that the bulk chase of the
                 same source reports one too *)
              let oracle_fails inst =
                match Engine.execute compiled inst with
                | Engine.Failed _ -> true
                | _ -> false
              in
              match Maintain.init compiled base with
              | Error m ->
                  oracle_fails base
                  || QCheck.Test.fail_reportf "init: %s (bulk succeeds)" m
              | Ok st -> (
                  match Maintain.apply st batch with
                  | Error m ->
                      oracle_fails final_expected
                      || QCheck.Test.fail_reportf "apply: %s (bulk succeeds)"
                           m
                  | Ok (st, _) ->
                      let final = Maintain.source st in
                      let run domains =
                        Pool.with_pool ~domains (fun pool ->
                            match Engine.execute ~pool compiled final with
                            | Engine.Complete r -> r
                            | Engine.Budget_exhausted _ ->
                                QCheck.Test.fail_report "rebuild exhausted"
                            | Engine.Failed m ->
                                QCheck.Test.fail_reportf "rebuild: %s" m)
                      in
                      let r1 = run 1 and r4 = run 4 in
                      let doc r =
                        Render.exchange_json ~head:[] ~laconic:false r
                      in
                      String.equal (doc r1) (doc r4)
                      && hom_equiv (Maintain.target st) r1.Engine.r_target))))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "delta",
      [
        Alcotest.test_case "batch parses and round-trips" `Quick
          test_batch_parse;
        Alcotest.test_case "batch rejects bad input" `Quick test_batch_errors;
        Alcotest.test_case "skolemized plans are null-free and ≡hom" `Quick
          test_skolemize;
        Alcotest.test_case "init matches bulk execution" `Quick
          test_init_matches_bulk;
        Alcotest.test_case "insert/delete batches track the re-chase" `Quick
          test_insert_delete_equiv;
        Alcotest.test_case "last support retracts the null everywhere" `Quick
          test_null_collected;
        Alcotest.test_case "shared support counts down, not off" `Quick
          test_shared_support;
        Alcotest.test_case "egd merges maintained through both paths" `Quick
          test_egd_paths;
        Alcotest.test_case "maintenance invariant across shard counts" `Quick
          test_sharded_maintenance;
        Alcotest.test_case "key conflict errors and poisons" `Quick
          test_conflict_poisons;
        Alcotest.test_case "key index current after a recompute" `Quick
          test_stale_index_after_recompute;
        Alcotest.test_case "egd check pays for the batch" `Quick
          test_egd_checked_is_per_batch;
        Alcotest.test_case "fact rows compact under churn" `Quick
          test_fact_rows_compact_under_churn;
        q prop_keyed_batches_match_fresh_init;
        q prop_maintain_equiv;
      ] );
  ]
