(* Tests for Smg_verify: the CQ containment, equivalence and
   minimization the verification layer relies on ({!Smg_cq.Query}),
   chase-based mapping implication and dedup, and core computation —
   hand-checked fixtures plus qcheck properties. The homomorphism engine
   beneath them is tested in test_cq.ml. *)

module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query
module Dependency = Smg_cq.Dependency
module Mapping = Smg_cq.Mapping
module Mapverify = Smg_verify.Mapverify
module Icore = Smg_verify.Icore

let v = Atom.v
let a = Atom.atom
let q ?name ~head body = Query.make ?name ~head body

(* ---- containment / equivalence / minimization ----- *)

(* q1(x) :- r(x,y), r(y,z)   q2(x) :- r(x,y)   q1 ⊆ q2 *)
let q_path = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ]; a "r" [ v "y"; v "z" ] ]
let q_edge = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ]

(* No single atom can be dropped: no head-fixing fold of the query into
   its body minus one atom. Checked directly, not through [minimize]. *)
let is_minimal (qq : Query.t) =
  List.for_all
    (fun i ->
      let body' = List.filteri (fun j _ -> j <> i) qq.Query.body in
      Option.is_none
        (Query.homomorphism ~from_:qq ~to_:{ qq with Query.body = body' }))
    (List.init (List.length qq.Query.body) Fun.id)

let test_containment_basic () =
  Alcotest.(check bool) "path ⊆ edge" true (Query.contained_in q_path q_edge);
  Alcotest.(check bool) "edge ⊄ path" false (Query.contained_in q_edge q_path)

let test_containment_heads () =
  let qa = q ~head:[ v "x"; v "y" ] [ a "r" [ v "x"; v "y" ] ] in
  let qb = q ~head:[ v "y"; v "x" ] [ a "r" [ v "x"; v "y" ] ] in
  Alcotest.(check bool) "swapped heads differ" false (Query.contained_in qa qb)

let test_containment_constants () =
  let qc = q ~head:[ v "x" ] [ a "r" [ v "x"; Atom.str "fixed" ] ] in
  Alcotest.(check bool) "constant query ⊆ general" true
    (Query.contained_in qc q_edge);
  Alcotest.(check bool) "general ⊄ constant" false
    (Query.contained_in q_edge qc)

let test_equivalence_alpha () =
  let qa = q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ] ] in
  let qb = q ~head:[ v "u" ] [ a "r" [ v "u"; v "w" ] ] in
  Alcotest.(check bool) "alpha-equivalent" true (Query.equivalent qa qb);
  Alcotest.(check bool) "inequivalent" false (Query.equivalent qa q_path)

let test_minimize_folds () =
  let qq =
    q ~head:[ v "x" ] [ a "r" [ v "x"; v "y" ]; a "r" [ v "x"; v "z" ] ]
  in
  let m = Query.minimize qq in
  Alcotest.(check int) "one atom after minimization" 1 (List.length m.Query.body);
  Alcotest.(check bool) "still equivalent" true (Query.equivalent m qq);
  Alcotest.(check bool) "result minimal" true (is_minimal m);
  Alcotest.(check bool) "input not minimal" false (is_minimal qq)

let test_minimize_keeps_core () =
  let m = Query.minimize q_path in
  Alcotest.(check int) "path query is its own core" 2 (List.length m.Query.body);
  Alcotest.(check bool) "already minimal" true (is_minimal q_path)

(* ---- mapping implication, dedup ----- *)

let src_schema =
  Schema.make ~name:"src"
    [ Schema.table "s" [ ("a", Schema.TString); ("b", Schema.TString) ] ]
    []

(* the target deliberately reuses the source's table name [s]: implication
   must namespace the sides apart (the Mondial pair does this for real) *)
let tgt_schema =
  Schema.make ~name:"tgt"
    [
      Schema.table "t" [ ("a", Schema.TString); ("b", Schema.TString) ];
      Schema.table "s" [ ("a", Schema.TString) ];
    ]
    []

(* copy: s(x,y) -> t(x,y);  weak: s(x,y) -> ∃w t(x,w) *)
let tgd_copy =
  Dependency.tgd ~name:"copy"
    ~lhs:[ a "s" [ v "x"; v "y" ] ]
    [ a "t" [ v "x"; v "y" ] ]

let tgd_weak =
  Dependency.tgd ~name:"weak"
    ~lhs:[ a "s" [ v "x"; v "y" ] ]
    [ a "t" [ v "x"; v "w" ] ]

let implied t ~by =
  Mapverify.tgd_implied_by ~source:src_schema ~target:tgt_schema ~by t

let test_tgd_implication () =
  Alcotest.(check bool) "copy implies weak" true (implied tgd_weak ~by:[ tgd_copy ]);
  Alcotest.(check bool) "weak does not imply copy" false
    (implied tgd_copy ~by:[ tgd_weak ]);
  Alcotest.(check bool) "self-implication" true (implied tgd_copy ~by:[ tgd_copy ])

let test_tgd_implication_shared_names () =
  (* lhs and rhs both mention a table called [s]; without namespacing the
     chase would conflate them (or refuse the combined schema) *)
  let t =
    Dependency.tgd ~name:"shared"
      ~lhs:[ a "s" [ v "x"; v "y" ] ]
      [ a "s" [ v "x" ] ]
  in
  Alcotest.(check bool) "distinct sides" true (implied t ~by:[ t ]);
  Alcotest.(check bool) "copy does not give target s" false
    (implied t ~by:[ tgd_copy ])

let test_chase_canonical_has_nulls () =
  match
    Mapverify.chase_canonical ~source:src_schema ~target:tgt_schema
      ~by:[ tgd_weak ] tgd_weak
  with
  | None -> Alcotest.fail "chase failed"
  | Some out ->
      Alcotest.(check bool) "existential became a labelled null" true
        (List.exists
           (fun name ->
             match Instance.relation out name with
             | Some r ->
                 List.exists (fun tup -> Array.exists Value.is_null tup) r.Instance.tuples
             | None -> false)
           (Instance.names out))

let mapping name score ~covered ~src ~tgt =
  Mapping.rename name
    (Mapping.make ~score ~src_query:src ~tgt_query:tgt ~covered ())

let corr_a = Mapping.corr ~src:("s", "a") ~tgt:("t", "a")
let corr_b = Mapping.corr ~src:("s", "b") ~tgt:("t", "b")

let m_copy =
  mapping "m-copy" 0.1 ~covered:[ corr_a; corr_b ]
    ~src:(q ~head:[ v "x"; v "y" ] [ a "s" [ v "x"; v "y" ] ])
    ~tgt:(q ~head:[ v "x"; v "y" ] [ a "t" [ v "x"; v "y" ] ])

(* alpha-renamed copy: same logical content, worse score *)
let m_copy' =
  mapping "m-copy-renamed" 0.2 ~covered:[ corr_a; corr_b ]
    ~src:(q ~head:[ v "u"; v "w" ] [ a "s" [ v "u"; v "w" ] ])
    ~tgt:(q ~head:[ v "u"; v "w" ] [ a "t" [ v "u"; v "w" ] ])

(* projection: strictly weaker than copy *)
let m_weak =
  mapping "m-weak" 0.3 ~covered:[ corr_a ]
    ~src:(q ~head:[ v "x" ] [ a "s" [ v "x"; v "y" ] ])
    ~tgt:(q ~head:[ v "x" ] [ a "t" [ v "x"; v "w" ] ])

let test_mapping_implies () =
  let implies = Mapverify.implies ~source:src_schema ~target:tgt_schema in
  Alcotest.(check bool) "copy implies projection" true (implies m_copy m_weak);
  Alcotest.(check bool) "projection does not imply copy" false
    (implies m_weak m_copy);
  Alcotest.(check bool) "alpha-variants equivalent" true
    (Mapverify.equivalent ~source:src_schema ~target:tgt_schema m_copy m_copy')

let test_dedup_report () =
  let r =
    Mapverify.dedup ~source:src_schema ~target:tgt_schema
      [ m_copy; m_copy'; m_weak ]
  in
  Alcotest.(check int) "3 in" 3 r.Mapverify.rp_in;
  Alcotest.(check int) "2 classes" 2 (Mapverify.n_classes r);
  Alcotest.(check int) "1 collapsed" 1 (Mapverify.n_collapsed r);
  Alcotest.(check int) "1 subsumed" 1 (Mapverify.n_subsumed r);
  match r.Mapverify.rp_kept with
  | [ first; second ] ->
      Alcotest.(check string) "best survives first" "m-copy"
        first.Mapping.m_name;
      Alcotest.(check bool) "absorption recorded" true
        (List.exists
           (fun note -> String.length note > 0 && note.[0] = 'd')
           first.Mapping.provenance);
      Alcotest.(check string) "subsumed survivor kept" "m-weak"
        second.Mapping.m_name
  | kept ->
      Alcotest.failf "expected 2 kept, got %d" (List.length kept)

(* ---- core computation ----- *)

let inst_of_tuples tuples =
  List.fold_left
    (fun i tup -> Instance.add_tuple i "r" ~header:[ "a"; "b" ] tup)
    Instance.empty tuples

let vi n = Value.VInt n
let vn k = Value.VNull k

let test_core_folds_redundant_null () =
  (* (1,2) and (1,N0): N0 folds onto 2 *)
  let i = inst_of_tuples [ [| vi 1; vi 2 |]; [| vi 1; vn 0 |] ] in
  let c = Icore.core i in
  Alcotest.(check int) "one tuple left" 1 (Instance.total_tuples c);
  Alcotest.(check bool) "ground tuple kept" true
    (match Instance.relation c "r" with
    | Some r -> Instance.mem_tuple r [| vi 1; vi 2 |]
    | None -> false);
  Alcotest.(check bool) "result is a core" true (Icore.is_core c)

let test_core_keeps_needed_null () =
  (* (1,N0) alone: nothing to fold onto *)
  let i = inst_of_tuples [ [| vi 1; vn 0 |] ] in
  let c = Icore.core i in
  Alcotest.(check bool) "unchanged" true (Instance.equal i c);
  Alcotest.(check bool) "is core" true (Icore.is_core i)

let test_core_chain () =
  (* (1,N0),(N0,N1),(1,2),(2,3): the null chain retracts onto the
     ground path *)
  let i =
    inst_of_tuples
      [ [| vi 1; vn 0 |]; [| vn 0; vn 1 |]; [| vi 1; vi 2 |]; [| vi 2; vi 3 |] ]
  in
  let c = Icore.core i in
  Alcotest.(check int) "only the ground path remains" 2
    (Instance.total_tuples c);
  Alcotest.(check bool) "no nulls left" true
    (match Instance.relation c "r" with
    | Some r ->
        List.for_all
          (fun tup -> not (Array.exists Value.is_null tup))
          r.Instance.tuples
    | None -> false)

(* Core folding depends on the homomorphism search being fail-first.
   Component j is {p(N, c), q(M, c), r(N, M, dj)} beside a ground
   r(aj, bj, dj), and nothing folds: no p or q fact holds aj or bj.
   Fail-first expands the [r] atom first (one image), binds N and M to
   aj and bj, and prunes at the [p] atom. Expanding left to right
   instead tries every pair of [p] and [q] images before reaching [r]:
   cubic in the component count, seconds rather than milliseconds at
   this size. *)
let test_core_fail_first () =
  let k = 400 in
  let vs s = Value.VString s in
  let add name header tup i = Instance.add_tuple i name ~header tup in
  let r = [ "x"; "y"; "d" ] in
  let i =
    List.fold_left
      (fun i j ->
        let d = vs (Printf.sprintf "d%d" j) in
        i
        |> add "p" [ "x"; "c" ] [| vn (2 * j); vs "c" |]
        |> add "q" [ "y"; "c" ] [| vn ((2 * j) + 1); vs "c" |]
        |> add "r" r [| vn (2 * j); vn ((2 * j) + 1); d |]
        |> add "r" r
             [| vs (Printf.sprintf "a%d" j); vs (Printf.sprintf "b%d" j); d |])
      Instance.empty (List.init k Fun.id)
  in
  let c, elapsed = Smg_robust.Clock.time (fun () -> Icore.core i) in
  Alcotest.(check int) "nothing folds" (4 * k) (Instance.total_tuples c);
  if elapsed >= 2.0 then
    Alcotest.failf "folding %d components took %.2f s (limit 2 s)" k elapsed

let test_core_of_chase () =
  (* chase s(x,y) with s(x,y) -> ∃w1 w2. t(x,w1), t(x,w2): the canonical
     solution has two interchangeable nulls; its core has one tuple *)
  let redundant =
    Dependency.tgd ~name:"redundant"
      ~lhs:[ a "s" [ v "x"; v "y" ] ]
      [ a "t" [ v "x"; v "w1" ]; a "t" [ v "x"; v "w2" ] ]
  in
  match
    Mapverify.chase_canonical ~source:src_schema ~target:tgt_schema
      ~by:[ redundant ] redundant
  with
  | None -> Alcotest.fail "chase failed"
  | Some out ->
      let tgt_tuples inst =
        List.fold_left
          (fun acc name ->
            if String.length name > 0 && name.[0] = 't' then
              acc + Instance.cardinality inst name
            else acc)
          0 (Instance.names inst)
      in
      Alcotest.(check int) "chase produced both variants" 2 (tgt_tuples out);
      let c = Icore.core out in
      Alcotest.(check int) "core folded them to one" 1 (tgt_tuples c);
      Alcotest.(check bool) "idempotent here" true
        (Instance.equal c (Icore.core c))

(* ---- qcheck properties ----- *)

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment is reflexive" ~count:100
    Test_cq.arb_query (fun qq -> Query.contained_in qq qq)

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimize q is equivalent to q and minimal"
    ~count:60 Test_cq.arb_query (fun qq ->
      let m = Query.minimize qq in
      Query.equivalent m qq && is_minimal m)

(* random instances over r/2 with a small pool of constants and nulls *)
let gen_instance =
  QCheck.Gen.(
    let value =
      frequency
        [
          (2, map (fun i -> Value.VInt i) (int_range 0 2));
          (1, map (fun k -> Value.VNull k) (int_range 0 2));
        ]
    in
    let* tuples = list_size (int_range 0 6) (pair value value) in
    return
      (List.fold_left
         (fun i (x, y) ->
           Instance.add_tuple i "r" ~header:[ "a"; "b" ] [| x; y |])
         Instance.empty tuples))

let arb_instance = QCheck.make gen_instance ~print:(Fmt.str "%a" Instance.pp)

let prop_core_idempotent =
  QCheck.Test.make ~name:"core is idempotent" ~count:100 arb_instance
    (fun i ->
      let c = Icore.core i in
      Icore.is_core c && Instance.equal (Icore.core c) c)

let prop_core_shrinks =
  QCheck.Test.make ~name:"core never grows the instance" ~count:100
    arb_instance (fun i ->
      Instance.total_tuples (Icore.core i) <= Instance.total_tuples i)

(* ---- suite ----- *)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let p = QCheck_alcotest.to_alcotest in
  [
    ( "verify-contain",
      [
        t "basic containment" test_containment_basic;
        t "heads respected" test_containment_heads;
        t "constants" test_containment_constants;
        t "alpha equivalence" test_equivalence_alpha;
        t "minimize folds" test_minimize_folds;
        t "minimize keeps core" test_minimize_keeps_core;
      ] );
    ( "verify-mapping",
      [
        t "tgd implication" test_tgd_implication;
        t "shared table names" test_tgd_implication_shared_names;
        t "canonical chase has nulls" test_chase_canonical_has_nulls;
        t "mapping implication" test_mapping_implies;
        t "dedup report" test_dedup_report;
      ] );
    ( "verify-core",
      [
        t "folds redundant null" test_core_folds_redundant_null;
        t "keeps needed null" test_core_keeps_needed_null;
        t "null chain retracts" test_core_chain;
        t "core of chase" test_core_of_chase;
        t "fail-first fold search (time guard)" test_core_fail_first;
      ] );
    ( "verify-props",
      [
        p prop_containment_reflexive;
        p prop_minimize_equivalent;
        p prop_core_idempotent;
        p prop_core_shrinks;
      ] );
  ]
