(* Tests for Smg_cq: atoms, the homomorphism engine, query
   containment/minimization/evaluation, dependencies, the chase,
   mappings. *)

module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Hom = Smg_cq.Hom
module Query = Smg_cq.Query
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase
module Mapping = Smg_cq.Mapping

let v = Atom.v
let a = Atom.atom
let q ?name ~head body = Query.make ?name ~head body

(* ---- atoms ----- *)

let test_atom_subst () =
  let s = Atom.Subst.of_list [ ("x", v "y"); ("z", Atom.str "k") ] in
  let at = a "r" [ v "x"; v "z"; v "w" ] in
  let at' = Atom.apply s at in
  Alcotest.(check bool) "substituted" true
    (Atom.equal at' (a "r" [ v "y"; Atom.str "k"; v "w" ]))

let test_atom_vars () =
  Alcotest.(check (list string)) "vars in order, deduped" [ "x"; "y" ]
    (Atom.vars_of_list [ a "r" [ v "x"; v "y" ]; a "s" [ v "y"; v "x" ] ])

(* ---- homomorphism engine ----- *)

let fact p xs = a p (List.map Atom.str xs)

let test_hom_find () =
  let subst = Hom.find (Hom.index [ fact "r" [ "a"; "b" ] ]) [ a "r" [ v "x"; v "y" ] ] in
  match subst with
  | None -> Alcotest.fail "expected a homomorphism"
  | Some s ->
      Alcotest.(check bool) "x -> a" true
        (Atom.Subst.find s "x" = Some (Atom.str "a"));
      Alcotest.(check bool) "y -> b" true
        (Atom.Subst.find s "y" = Some (Atom.str "b"))

let test_hom_all_count () =
  let homs =
    Hom.all
      (Hom.index [ fact "r" [ "a"; "b" ]; fact "r" [ "a"; "c" ] ])
      [ a "r" [ v "x"; v "y" ] ]
  in
  Alcotest.(check int) "two images" 2 (List.length homs)

let test_hom_limit () =
  let homs =
    Hom.all ~limit:1
      (Hom.index [ fact "r" [ "a"; "b" ]; fact "r" [ "a"; "c" ] ])
      [ a "r" [ v "x"; v "y" ] ]
  in
  Alcotest.(check int) "limit respected" 1 (List.length homs)

let test_hom_forward_check () =
  (* s(y) has no image at all: the search must fail, not enumerate r's *)
  Alcotest.(check bool) "no homomorphism" false
    (Hom.holds
       (Hom.index [ fact "r" [ "a"; "b" ] ])
       [ a "r" [ v "x"; v "y" ]; a "s" [ v "y" ] ])

let test_hom_init_pins () =
  let init = Atom.Subst.of_list [ ("x", Atom.str "z") ] in
  Alcotest.(check bool) "pre-binding blocks" false
    (Hom.holds ~init (Hom.index [ fact "r" [ "a"; "b" ] ]) [ a "r" [ v "x"; v "y" ] ]);
  Alcotest.(check bool) "pre-binding satisfiable" true
    (Hom.holds ~init
       (Hom.index [ fact "r" [ "a"; "b" ]; fact "r" [ "z"; "b" ] ])
       [ a "r" [ v "x"; v "y" ] ])

let test_hom_shared_var_join () =
  (* r(x,y), r(y,z): y must take the same value in both atoms *)
  Alcotest.(check bool) "join respected" true
    (Hom.holds
       (Hom.index [ fact "r" [ "a"; "b" ]; fact "r" [ "b"; "c" ] ])
       [ a "r" [ v "x"; v "y" ]; a "r" [ v "y"; v "z" ] ]);
  Alcotest.(check bool) "broken join rejected" false
    (Hom.holds
       (Hom.index [ fact "r" [ "a"; "b" ]; fact "r" [ "c"; "d" ] ])
       [ a "r" [ v "x"; v "y" ]; a "r" [ v "y"; v "z" ] ])

(* ---- containment ----- *)

(* q1(x) :- r(x,y), r(y,z)   q2(x) :- r(x,y)   q1 ⊆ q2 *)
let q1 = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ]; a "r" [ v "y"; v "z" ] ]
let q2 = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ]

let test_containment_basic () =
  Alcotest.(check bool) "q1 ⊆ q2" true (Query.contained_in q1 q2);
  Alcotest.(check bool) "q2 ⊄ q1" false (Query.contained_in q2 q1)

let test_containment_head_respected () =
  (* Same bodies, swapped heads: not contained. *)
  let qa = q ~head:[ v "x"; v "y" ] [ a "r" [ v "x"; v "y" ] ] in
  let qb = q ~head:[ v "y"; v "x" ] [ a "r" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "swapped heads differ" false (Query.contained_in qa qb)

let test_containment_head_var_rigid () =
  (* Regression for the seed bug: a head variable mapped to itself must
     stay pinned, not rebind to a fresh variable of the other body. *)
  let safe = q ~head:[ v "v0"; v "v1" ] [ a "t" [ v "v0"; v "v1" ] ] in
  let unsafe = q ~head:[ v "v0"; v "v1" ] [ a "t" [ v "f"; v "v1" ] ] in
  Alcotest.(check bool) "unsafe-headed not contained in safe" false
    (Query.contained_in unsafe safe);
  Alcotest.(check bool) "not equivalent" false (Query.equivalent safe unsafe)

let test_constants_in_containment () =
  let qc = q ~head:[ v "x" ] [ a "r" [ v "x"; Atom.str "fixed" ] ] in
  Alcotest.(check bool) "constant query ⊆ general" true
    (Query.contained_in qc q2);
  Alcotest.(check bool) "general ⊄ constant" false (Query.contained_in q2 qc)

let test_equivalence_renaming () =
  let qa = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ] in
  let qb = q ~head:[ v "u" ] [ a "r" [ v "u"; v "w" ] ] in
  Alcotest.(check bool) "alpha-equivalent" true (Query.equivalent qa qb);
  Alcotest.(check bool) "inequivalent" false (Query.equivalent qa q1)

let test_minimize () =
  (* r(x,y), r(x,z) minimizes to r(x,y) *)
  let qq = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ]; a "r" [ v "x"; v "z" ] ] in
  let m = Query.minimize qq in
  Alcotest.(check int) "one atom after minimization" 1 (List.length m.Query.body);
  Alcotest.(check bool) "still equivalent" true (Query.equivalent qq m)

let test_minimize_keeps_needed () =
  let m = Query.minimize q1 in
  Alcotest.(check int) "path query is its own core" 2
    (List.length m.Query.body)

(* ---- evaluation ----- *)

let db_schema =
  Schema.make ~name:"db"
    [
      Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "s" [ ("b", Schema.TString); ("c", Schema.TString) ];
    ]
    []

let db =
  let vs s = Value.VString s in
  Instance.empty
  |> fun i -> Instance.add_tuple i "r" ~header:[ "a"; "b" ] [| vs "1"; vs "2" |]
  |> fun i -> Instance.add_tuple i "r" ~header:[ "a"; "b" ] [| vs "2"; vs "3" |]
  |> fun i -> Instance.add_tuple i "s" ~header:[ "b"; "c" ] [| vs "2"; vs "9" |]

let test_eval_join () =
  let query =
    q ~head:[ v "x"; v "z" ] [ a "r" [ v "x"; v "y" ]; a "s" [ v "y"; v "z" ] ]
  in
  let rel = Query.eval db_schema db query in
  Alcotest.(check int) "one joined answer" 1 (List.length rel.Instance.tuples);
  Alcotest.(check bool) "answer is (1,9)" true
    (Value.equal (List.hd rel.Instance.tuples).(0) (Value.VString "1"))

let test_eval_constant_filter () =
  let query = q ~head:[ v "y" ] [ a "r" [ Atom.str "2"; v "y" ] ] in
  let rel = Query.eval db_schema db query in
  Alcotest.(check int) "filtered by constant" 1 (List.length rel.Instance.tuples)

let test_eval_repeated_var () =
  let query = q ~head:[ v "x" ] [ a "r" [ v "x"; v "x" ] ] in
  let rel = Query.eval db_schema db query in
  Alcotest.(check int) "no reflexive r" 0 (List.length rel.Instance.tuples)

(* ---- dependencies & chase ----- *)

let test_tgd_vars () =
  let t =
    Dependency.tgd ~name:"t" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "y"; v "z" ] ]
  in
  Alcotest.(check (list string)) "universal" [ "y" ] (Dependency.universal_vars t);
  Alcotest.(check (list string)) "existential" [ "z" ]
    (Dependency.existential_vars t)

let test_chase_tgd () =
  (* every r(x,y) implies s(y,z) *)
  let t =
    Dependency.tgd ~name:"t" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "y"; v "z" ] ]
  in
  match Chase.run ~schema:db_schema ~tgds:[ t ] ~egds:[] db with
  | Chase.Saturated i ->
      (* s already has b=2; the chase adds one for b=3 *)
      Alcotest.(check int) "s grew by one" 2 (Instance.cardinality i "s")
  | Chase.Bounded _ -> Alcotest.fail "chase should saturate"
  | Chase.Failed m -> Alcotest.fail ("chase failed: " ^ m)

let test_chase_does_not_refire () =
  let t =
    Dependency.tgd ~name:"t" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "y"; v "z" ] ]
  in
  match Chase.run ~schema:db_schema ~tgds:[ t ] ~egds:[] db with
  | Chase.Saturated i1 -> (
      match Chase.run ~schema:db_schema ~tgds:[ t ] ~egds:[] i1 with
      | Chase.Saturated i2 ->
          Alcotest.(check int) "idempotent" (Instance.total_tuples i1)
            (Instance.total_tuples i2)
      | _ -> Alcotest.fail "second chase should saturate")
  | _ -> Alcotest.fail "first chase should saturate"

let test_chase_egd_merges_nulls () =
  Value.reset_null_counter ();
  let n1 = Value.fresh_null () in
  let i =
    Instance.empty
    |> fun i ->
    Instance.add_tuple i "r" ~header:[ "a"; "b" ] [| Value.VString "1"; n1 |]
    |> fun i ->
    Instance.add_tuple i "r" ~header:[ "a"; "b" ]
      [| Value.VString "1"; Value.VString "7" |]
  in
  (* key a -> b: the null must merge with "7" *)
  let e =
    Dependency.egd ~name:"key"
      ~lhs:[ a "r" [ v "x"; v "y1" ]; a "r" [ v "x"; v "y2" ] ]
      ("y1", "y2")
  in
  match Chase.run ~schema:db_schema ~tgds:[] ~egds:[ e ] i with
  | Chase.Saturated res ->
      Alcotest.(check int) "tuples merged" 1 (Instance.cardinality res "r")
  | _ -> Alcotest.fail "expected saturation"

let test_chase_egd_conflict () =
  let i =
    Instance.empty
    |> fun i ->
    Instance.add_tuple i "r" ~header:[ "a"; "b" ]
      [| Value.VString "1"; Value.VString "7" |]
    |> fun i ->
    Instance.add_tuple i "r" ~header:[ "a"; "b" ]
      [| Value.VString "1"; Value.VString "8" |]
  in
  let e =
    Dependency.egd ~name:"key"
      ~lhs:[ a "r" [ v "x"; v "y1" ]; a "r" [ v "x"; v "y2" ] ]
      ("y1", "y2")
  in
  match Chase.run ~schema:db_schema ~tgds:[] ~egds:[ e ] i with
  | Chase.Failed _ -> ()
  | _ -> Alcotest.fail "expected an egd failure"

let test_exchange () =
  (* copy r into s, swapping columns and inventing the missing value *)
  let source =
    Schema.make ~name:"src" [ Schema.table "r" [ ("a", Schema.TString); ("b", Schema.TString) ] ] []
  in
  let target =
    Schema.make ~name:"tgt"
      [ Schema.table ~key:[ "b" ] "s" [ ("b", Schema.TString); ("c", Schema.TString) ] ]
      []
  in
  let m =
    Dependency.tgd ~name:"m" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "y"; v "z" ] ]
  in
  let src_inst =
    Instance.add_tuple Instance.empty "r" ~header:[ "a"; "b" ]
      [| Value.VString "1"; Value.VString "2" |]
  in
  match Chase.exchange ~source ~target ~mappings:[ m ] src_inst with
  | Chase.Saturated i ->
      Alcotest.(check (list string)) "only target relations" [ "s" ]
        (Instance.names i);
      Alcotest.(check int) "one s tuple" 1 (Instance.cardinality i "s");
      let t = List.hd (Option.get (Instance.relation i "s")).Instance.tuples in
      Alcotest.(check bool) "labelled null invented" true (Value.is_null t.(1))
  | _ -> Alcotest.fail "exchange should saturate"

(* Mondial's shape: both sides name a table [country]. The chase keeps
   the sides apart, so the source rows neither come back as target rows
   nor trigger the tgd again. *)
let test_exchange_shared_table_name () =
  let source =
    Schema.make ~name:"src"
      [ Schema.table "country" [ ("name", Schema.TString); ("code", Schema.TString) ] ]
      []
  in
  let target =
    Schema.make ~name:"tgt"
      [
        Schema.table ~key:[ "code" ] "country"
          [ ("code", Schema.TString); ("name", Schema.TString); ("capital", Schema.TString) ];
      ]
      []
  in
  let m =
    Dependency.tgd ~name:"m" ~lhs:[ a "country" [ v "n"; v "c" ] ]
      [ a "country" [ v "c"; v "n"; v "z" ] ]
  in
  let src_inst =
    List.fold_left
      (fun i (n, c) ->
        Instance.add_tuple i "country" ~header:[ "name"; "code" ]
          [| Value.VString n; Value.VString c |])
      Instance.empty
      [ ("France", "F"); ("Peru", "PE") ]
  in
  match Chase.exchange ~source ~target ~mappings:[ m ] src_inst with
  | Chase.Saturated i ->
      Alcotest.(check (list string)) "only the target relation" [ "country" ]
        (Instance.names i);
      let rows =
        (Option.get (Instance.relation i "country")).Instance.tuples
        |> List.map (fun t ->
               Alcotest.(check int) "target arity" 3 (Array.length t);
               Alcotest.(check bool) "capital is a null" true (Value.is_null t.(2));
               (Value.to_string t.(0), Value.to_string t.(1)))
        |> List.sort compare
      in
      Alcotest.(check (list (pair string string)))
        "the chased target tuples"
        [ ("\"F\"", "\"France\""); ("\"PE\"", "\"Peru\"") ]
        rows
  | _ -> Alcotest.fail "exchange should saturate"

let test_chase_bounded () =
  (* a tgd that keeps inventing values: r(x,y) → r(y,z) never saturates *)
  let t =
    Dependency.tgd ~name:"grow" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "r" [ v "y"; v "z" ] ]
  in
  match Chase.run ~max_rounds:3 ~schema:db_schema ~tgds:[ t ] ~egds:[] db with
  | Chase.Bounded _ -> ()
  | Chase.Saturated _ -> Alcotest.fail "cannot saturate a growing chase"
  | Chase.Failed m -> Alcotest.fail m

let test_saturate_adds_referenced_atoms () =
  let schema =
    Schema.make ~name:"s"
      [
        Schema.table ~key:[ "a" ] "t" [ ("a", Schema.TString); ("b", Schema.TString) ];
        Schema.table ~key:[ "b" ] "u" [ ("b", Schema.TString) ];
      ]
      [ Schema.ric ~name:"fk" ~from_:("t", [ "b" ]) ~to_:("u", [ "b" ]) ]
  in
  let query = q ~head:[ v "x" ] [ a "t" [ v "x"; v "y" ] ] in
  let sat = Query.saturate ~schema query in
  Alcotest.(check int) "u atom added" 2 (List.length sat.Query.body);
  (* containment under the RIC: t(x,y) ⊆ t(x,y) ∧ u(y) *)
  let bigger = q ~head:[ v "x" ] [ a "t" [ v "x"; v "y" ]; a "u" [ v "y" ] ] in
  Alcotest.(check bool) "contained under RICs" true
    (Query.contained_under ~schema query bigger);
  Alcotest.(check bool) "not contained plainly" false
    (Query.contained_in query bigger)

let test_equal_tgd_alpha () =
  let t1 =
    Dependency.tgd ~name:"t1" ~lhs:[ a "r" [ v "x"; v "y" ] ]
      [ a "s" [ v "y"; v "z" ] ]
  in
  let t2 =
    Dependency.tgd ~name:"t2" ~lhs:[ a "r" [ v "p"; v "q" ] ]
      [ a "s" [ v "q"; v "w" ] ]
  in
  let t3 =
    Dependency.tgd ~name:"t3" ~lhs:[ a "r" [ v "p"; v "q" ] ]
      [ a "s" [ v "p"; v "w" ] ]
  in
  Alcotest.(check bool) "alpha-equivalent tgds" true (Dependency.equal_tgd t1 t2);
  Alcotest.(check bool) "different variable flow" false
    (Dependency.equal_tgd t1 t3)

let test_key_egds_and_ric_tgds () =
  let schema =
    Schema.make ~name:"k"
      [
        Schema.table ~key:[ "id" ] "t" [ ("id", Schema.TInt); ("x", Schema.TInt) ];
        Schema.table ~key:[ "id" ] "u" [ ("id", Schema.TInt) ];
      ]
      [ Schema.ric ~name:"r" ~from_:("t", [ "id" ]) ~to_:("u", [ "id" ]) ]
  in
  Alcotest.(check int) "one egd for the non-key column" 1
    (List.length (Dependency.key_egds schema));
  Alcotest.(check int) "one tgd per ric" 1
    (List.length (Dependency.ric_tgds schema))

(* ---- mappings ----- *)

let mk_mapping () =
  Mapping.make ~name:"m"
    ~src_query:(q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ])
    ~tgt_query:(q ~head:[ v "p" ] [ a "s" [ v "p"; v "q" ] ])
    ~covered:[ Mapping.corr_of_strings "r.a" "s.b" ]
    ()

let test_mapping_tgd () =
  let t = Mapping.to_tgd (mk_mapping ()) in
  Alcotest.(check int) "one existential (q_t)" 1
    (List.length (Dependency.existential_vars t));
  Alcotest.(check (list string)) "x is universal" [ "x" ]
    (Dependency.universal_vars t)

let test_mapping_same_modulo_renaming () =
  let m1 = mk_mapping () in
  let m2 =
    Mapping.make ~name:"m2"
      ~src_query:(q ~head:[ v "u" ] [ a "r" [ v "u"; v "w" ] ])
      ~tgt_query:(q ~head:[ v "h" ] [ a "s" [ v "h"; v "k" ] ])
      ~covered:[ Mapping.corr_of_strings "r.a" "s.b" ]
      ()
  in
  Alcotest.(check bool) "same up to renaming" true (Mapping.same m1 m2)

let test_mapping_same_covered_matters () =
  let m1 = mk_mapping () in
  let m2 =
    Mapping.make ~name:"m2"
      ~src_query:(q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ])
      ~tgt_query:(q ~head:[ v "p" ] [ a "s" [ v "p"; v "q" ] ])
      ~covered:[ Mapping.corr_of_strings "r.b" "s.b" ]
      ()
  in
  Alcotest.(check bool) "different correspondences differ" false
    (Mapping.same m1 m2)

let test_mapping_algebra_eval () =
  (* The algebraic form of a CQ evaluates like the CQ itself. *)
  let query =
    q ~head:[ v "x"; v "z" ] [ a "r" [ v "x"; v "y" ]; a "s" [ v "y"; v "z" ] ]
  in
  let alg = Mapping.algebra_of_query db_schema query in
  let via_alg = Smg_relational.Algebra.eval db_schema db alg in
  let via_cq = Query.eval db_schema db query in
  Alcotest.(check int) "same cardinality"
    (List.length via_cq.Instance.tuples)
    (List.length via_alg.Instance.tuples)

let test_is_trivial () =
  Alcotest.(check bool) "single tables are trivial" true
    (Mapping.is_trivial (mk_mapping ()))

(* ---- property tests ----- *)

(* random safe CQs over r/2, s/2: args drawn from a small variable pool
   (plus an occasional constant), head = up to two body variables *)
let gen_query =
  QCheck.Gen.(
    let var = map (Printf.sprintf "x%d") (int_range 0 3) in
    let term =
      frequency [ (5, map Atom.v var); (1, map Atom.str (oneofl [ "c"; "d" ])) ]
    in
    let atom =
      let* p = oneofl [ "r"; "s" ] in
      let* t1 = map Atom.v var in
      let* t2 = term in
      return (a p [ t1; t2 ])
    in
    let* body = list_size (int_range 1 4) atom in
    let bv = Atom.vars_of_list body in
    let* n_head = int_range 1 (min 2 (List.length bv)) in
    let head = List.filteri (fun i _ -> i < n_head) bv |> List.map Atom.v in
    return (q ~head body))

let arb_query = QCheck.make gen_query ~print:(Fmt.str "%a" Query.pp)

let gen_extension body =
  QCheck.Gen.(
    let var =
      oneofl
        (match Atom.vars_of_list body with [] -> [ "x0" ] | vs -> vs)
    in
    let atom =
      let* p = oneofl [ "r"; "s" ] in
      let* t1 = map Atom.v var in
      let* t2 = map Atom.v var in
      return (a p [ t1; t2 ])
    in
    list_size (int_range 0 2) atom)

let arb_query_chain =
  (* q3 ⊆ q2 ⊆ q1 by construction: each extends the previous body *)
  let gen =
    QCheck.Gen.(
      let* q1 = gen_query in
      let* e1 = gen_extension q1.Query.body in
      let q2 = { q1 with Query.body = q1.Query.body @ e1 } in
      let* e2 = gen_extension q2.Query.body in
      let q3 = { q2 with Query.body = q2.Query.body @ e2 } in
      return (q1, q2, q3))
  in
  QCheck.make gen ~print:(fun (q1, q2, q3) ->
      Fmt.str "%a@.%a@.%a" Query.pp q1 Query.pp q2 Query.pp q3)

let random_instance seed =
  let vs k = Value.VString ("p" ^ string_of_int (k mod 4)) in
  let rec add i k =
    if k >= 8 then i
    else
      let i =
        Instance.add_tuple i "r" ~header:[ "a"; "b" ]
          [| vs (seed + k); vs (seed + (2 * k) + 1) |]
      in
      let i =
        Instance.add_tuple i "s" ~header:[ "b"; "c" ]
          [| vs (seed + (3 * k)); vs (seed + k + 2) |]
      in
      add i (k + 1)
  in
  add Instance.empty 0

let prop_algebra_agrees_with_cq =
  (* the relational-algebra rendering of a CQ evaluates to the same
     answer set as direct CQ evaluation *)
  QCheck.Test.make ~name:"algebra rendering agrees with CQ evaluation"
    ~count:100
    QCheck.(pair arb_query small_int)
    (fun (qq, seed) ->
      let inst = random_instance seed in
      let via_cq = Query.eval db_schema inst qq in
      let via_alg =
        Smg_relational.Algebra.eval db_schema inst
          (Mapping.algebra_of_query db_schema qq)
      in
      let as_set (r : Instance.relation) =
        List.map
          (fun t -> List.map Value.to_string (Array.to_list t))
          r.Instance.tuples
        |> List.sort compare
      in
      as_set via_cq = as_set via_alg)

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment is reflexive" ~count:100 arb_query
    (fun qq -> Query.contained_in qq qq)

let prop_containment_transitive =
  QCheck.Test.make ~name:"containment is transitive along extension chains"
    ~count:100 arb_query_chain (fun (q1, q2, q3) ->
      (* the chain is contained by construction; transitivity closes it *)
      Query.contained_in q3 q2
      && Query.contained_in q2 q1
      && Query.contained_in q3 q1)

let prop_equivalence_symmetric =
  QCheck.Test.make ~name:"equivalence is symmetric" ~count:60
    (QCheck.pair arb_query arb_query) (fun (qa, qb) ->
      Query.equivalent qa qb = Query.equivalent qb qa)

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimization preserves equivalence" ~count:100
    arb_query (fun qq ->
      let m = Query.minimize qq in
      Query.equivalent qq m && List.length m.Query.body <= List.length qq.Query.body)

let prop_minimize_idempotent =
  QCheck.Test.make ~name:"minimization is idempotent" ~count:100 arb_query
    (fun qq ->
      let m = Query.minimize qq in
      List.length (Query.minimize m).Query.body = List.length m.Query.body)

let prop_rename_apart_equivalent =
  QCheck.Test.make ~name:"renaming apart preserves equivalence" ~count:100
    arb_query (fun qq ->
      Query.equivalent qq (Query.rename_apart ~suffix:"_r" qq))

(* Differential check of the engine against exhaustive enumeration:
   every assignment of the free variables to terms of the rigid side,
   kept when each atom's image is a rigid fact. The rigid side may hold
   a variable [y], which must behave as a constant. *)
let brute_force ~init facts atoms =
  let free =
    List.filter
      (fun x -> Option.is_none (Atom.Subst.find init x))
      (Atom.vars_of_list atoms)
  in
  let domain =
    List.sort_uniq compare (List.concat_map (fun (f : Atom.t) -> f.Atom.args) facts)
  in
  let rec assign s = function
    | [] ->
        if
          List.for_all
            (fun at -> List.exists (Atom.equal (Atom.apply s at)) facts)
            atoms
        then [ s ]
        else []
    | x :: rest ->
        List.concat_map (fun t -> assign (Atom.Subst.bind s x t) rest) domain
  in
  assign init free

let arb_hom_problem =
  let gen =
    QCheck.Gen.(
      let cst = map Atom.str (oneofl [ "a"; "b"; "c" ]) in
      let flex_term =
        frequency [ (4, map (fun i -> v (Printf.sprintf "x%d" i)) (int_range 0 3)); (1, cst) ]
      in
      let rigid_term = frequency [ (4, cst); (1, return (v "y")) ] in
      let atom term =
        let* p = oneofl [ "r"; "s" ] in
        let* t1 = term in
        let* t2 = term in
        return (a p [ t1; t2 ])
      in
      let* atoms = list_size (int_range 0 4) (atom flex_term) in
      let* facts = list_size (int_range 0 6) (atom rigid_term) in
      let* pins =
        list_repeat 4 (opt ~ratio:0.3 (frequency [ (4, cst); (1, return (v "y")) ]))
      in
      let init =
        List.concat
          (List.mapi
             (fun i t -> match t with Some t -> [ (Printf.sprintf "x%d" i, t) ] | None -> [])
             pins)
        |> Atom.Subst.of_list
      in
      let* limit = int_range 1 3 in
      return (atoms, facts, init, limit))
  in
  QCheck.make gen ~print:(fun (atoms, facts, init, limit) ->
      Fmt.str "atoms %a@.facts %a@.init %a@.limit %d"
        (Fmt.Dump.list Atom.pp) atoms (Fmt.Dump.list Atom.pp) facts
        (Fmt.Dump.list (Fmt.Dump.pair Fmt.string Atom.pp_term))
        (Atom.Subst.bindings init) limit)

let prop_hom_matches_brute_force =
  QCheck.Test.make ~name:"all = brute force; limit is a prefix; init kept"
    ~count:300 arb_hom_problem (fun (atoms, facts, init, limit) ->
      let homs = Hom.all ~init (Hom.index facts) atoms in
      let norm l = List.sort_uniq compare (List.map Atom.Subst.bindings l) in
      let rec prefix k = function
        | x :: rest when k > 0 -> x :: prefix (k - 1) rest
        | _ -> []
      in
      norm homs = norm (brute_force ~init facts atoms)
      && List.map Atom.Subst.bindings (Hom.all ~init ~limit (Hom.index facts) atoms)
         = List.map Atom.Subst.bindings (prefix limit homs)
      && List.for_all
           (fun s ->
             List.for_all
               (fun (x, t) -> Atom.Subst.find s x = Some t)
               (Atom.Subst.bindings init))
           homs)

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "cq.atom",
      [
        Alcotest.test_case "substitution" `Quick test_atom_subst;
        Alcotest.test_case "vars" `Quick test_atom_vars;
      ] );
    ( "cq.hom",
      [
        Alcotest.test_case "find binds" `Quick test_hom_find;
        Alcotest.test_case "all counts" `Quick test_hom_all_count;
        Alcotest.test_case "limit" `Quick test_hom_limit;
        Alcotest.test_case "forward check" `Quick test_hom_forward_check;
        Alcotest.test_case "init pins" `Quick test_hom_init_pins;
        Alcotest.test_case "shared-variable join" `Quick test_hom_shared_var_join;
        qt prop_hom_matches_brute_force;
      ] );
    ( "cq.containment",
      [
        Alcotest.test_case "basic" `Quick test_containment_basic;
        Alcotest.test_case "heads respected" `Quick test_containment_head_respected;
        Alcotest.test_case "head vars rigid (regression)" `Quick
          test_containment_head_var_rigid;
        Alcotest.test_case "constants" `Quick test_constants_in_containment;
        Alcotest.test_case "alpha equivalence" `Quick test_equivalence_renaming;
        Alcotest.test_case "minimize" `Quick test_minimize;
        Alcotest.test_case "minimize keeps core" `Quick test_minimize_keeps_needed;
        qt prop_containment_reflexive;
        qt prop_containment_transitive;
        qt prop_equivalence_symmetric;
        qt prop_minimize_equivalent;
        qt prop_minimize_idempotent;
        qt prop_rename_apart_equivalent;
        qt prop_algebra_agrees_with_cq;
      ] );
    ( "cq.eval",
      [
        Alcotest.test_case "join" `Quick test_eval_join;
        Alcotest.test_case "constant filter" `Quick test_eval_constant_filter;
        Alcotest.test_case "repeated variable" `Quick test_eval_repeated_var;
      ] );
    ( "cq.chase",
      [
        Alcotest.test_case "tgd fires" `Quick test_chase_tgd;
        Alcotest.test_case "no refiring" `Quick test_chase_does_not_refire;
        Alcotest.test_case "egd merges nulls" `Quick test_chase_egd_merges_nulls;
        Alcotest.test_case "egd conflict fails" `Quick test_chase_egd_conflict;
        Alcotest.test_case "data exchange" `Quick test_exchange;
        Alcotest.test_case "exchange with a table name on both sides" `Quick
          test_exchange_shared_table_name;
        Alcotest.test_case "schema dependencies" `Quick test_key_egds_and_ric_tgds;
        Alcotest.test_case "bounded chase" `Quick test_chase_bounded;
        Alcotest.test_case "saturation / contained_under" `Quick
          test_saturate_adds_referenced_atoms;
        Alcotest.test_case "tgd variable classification" `Quick test_tgd_vars;
        Alcotest.test_case "tgd equality" `Quick test_equal_tgd_alpha;
      ] );
    ( "cq.mapping",
      [
        Alcotest.test_case "to_tgd" `Quick test_mapping_tgd;
        Alcotest.test_case "same modulo renaming" `Quick test_mapping_same_modulo_renaming;
        Alcotest.test_case "covered matters" `Quick test_mapping_same_covered_matters;
        Alcotest.test_case "algebra agrees with CQ" `Quick test_mapping_algebra_eval;
        Alcotest.test_case "triviality" `Quick test_is_trivial;
      ] );
  ]
