(* Tests for CM-to-CM mapping discovery (the §6 extension). *)

module Cml = Smg_cm.Cml
module Cardinality = Smg_cm.Cardinality
module Cm_discover = Smg_core.Cm_discover
module Query = Smg_cq.Query
module Atom = Smg_cq.Atom

(* source ontology: Person works in Department, chairs via partOf *)
let onto_a =
  Cml.make ~name:"a"
    ~binaries:
      [
        Cml.functional "worksIn" ~src:"Person" ~dst:"Department";
        Cml.functional ~kind:Cml.PartOf "chairs" ~src:"Department" ~dst:"School";
        Cml.functional "reportsTo" ~src:"Department" ~dst:"School";
      ]
    ~reified:
      [
        Cml.reified "authors"
          [
            ("au_p", "Person", Cardinality.many);
            ("au_d", "Document", Cardinality.many);
          ];
      ]
    [
      Cml.cls ~id:[ "pname" ] "Person" [ "pname" ];
      Cml.cls ~id:[ "dname" ] "Department" [ "dname" ];
      Cml.cls ~id:[ "sname" ] "School" [ "sname" ];
      Cml.cls ~id:[ "docid" ] "Document" [ "docid"; "doctitle" ];
    ]

(* target ontology: Employee belongs to Unit, leads via partOf *)
let onto_b =
  Cml.make ~name:"b"
    ~binaries:
      [
        Cml.functional "belongsTo" ~src:"Employee" ~dst:"Unit";
        Cml.functional ~kind:Cml.PartOf "leads" ~src:"Unit" ~dst:"Division";
      ]
    ~reified:
      [
        Cml.reified "writes"
          [
            ("wr_e", "Employee", Cardinality.many);
            ("wr_r", "Report", Cardinality.many);
          ];
      ]
    [
      Cml.cls ~id:[ "ename" ] "Employee" [ "ename" ];
      Cml.cls ~id:[ "uname" ] "Unit" [ "uname" ];
      Cml.cls ~id:[ "divname" ] "Division" [ "divname" ];
      Cml.cls ~id:[ "rid" ] "Report" [ "rid"; "rtitle" ];
    ]

let c = Cm_discover.corr

let body_preds (q : Query.t) =
  List.sort_uniq compare (List.map (fun (a : Atom.t) -> a.Atom.pred) q.Query.body)

let test_functional_pair () =
  let rs =
    Cm_discover.discover ~source:onto_a ~target:onto_b
      ~corrs:
        [
          c ~src:("Person", "pname") ~tgt:("Employee", "ename");
          c ~src:("Department", "dname") ~tgt:("Unit", "uname");
        ]
      ()
  in
  Alcotest.(check bool) "found" true (rs <> []);
  let best = List.hd rs in
  Alcotest.(check bool) "source uses worksIn" true
    (List.mem (Smg_semantics.Encode.rel_pred "worksIn") (body_preds best.Cm_discover.src_query));
  Alcotest.(check bool) "target uses belongsTo" true
    (List.mem (Smg_semantics.Encode.rel_pred "belongsTo") (body_preds best.Cm_discover.tgt_query))

let test_partof_disambiguation () =
  (* chairs (partOf) vs reportsTo (plain) both connect Department and
     School; the target 'leads' is partOf, so strict filtering keeps
     only the chairs pairing. *)
  let rs =
    Cm_discover.discover ~source:onto_a ~target:onto_b
      ~corrs:
        [
          c ~src:("Department", "dname") ~tgt:("Unit", "uname");
          c ~src:("School", "sname") ~tgt:("Division", "divname");
        ]
      ()
  in
  Alcotest.(check int) "only the partOf pairing" 1 (List.length rs);
  Alcotest.(check bool) "uses chairs" true
    (List.mem (Smg_semantics.Encode.rel_pred "chairs")
       (body_preds (List.hd rs).Cm_discover.src_query))

let test_many_many_pair () =
  let rs =
    Cm_discover.discover ~source:onto_a ~target:onto_b
      ~corrs:
        [
          c ~src:("Person", "pname") ~tgt:("Employee", "ename");
          c ~src:("Document", "doctitle") ~tgt:("Report", "rtitle");
        ]
      ()
  in
  Alcotest.(check bool) "found" true (rs <> []);
  let best = List.hd rs in
  Alcotest.(check bool) "reified roles paired" true
    (List.exists
       (fun p -> p = Smg_semantics.Encode.role_pred ~rr:"authors" "au_p")
       (body_preds best.Cm_discover.src_query))

let test_unknown_attribute_rejected () =
  Alcotest.check_raises "unknown attribute"
    (Invalid_argument "cm corr: class Person has no attribute nope")
    (fun () ->
      ignore
        (Cm_discover.discover ~source:onto_a ~target:onto_b
           ~corrs:[ c ~src:("Person", "nope") ~tgt:("Employee", "ename") ]
           ()))

let test_no_corrs () =
  Alcotest.(check int) "empty input, empty output" 0
    (List.length
       (Cm_discover.discover ~source:onto_a ~target:onto_b ~corrs:[] ()))

(* The two ontologies of examples/ontology_alignment.ml. *)
let shop_a =
  Cml.make ~name:"shopA"
    ~isas:[ { Cml.sub = "PremiumCustomer"; super = "Customer" } ]
    ~binaries:
      [
        Cml.functional ~total:true "placedBy" ~src:"Order" ~dst:"Customer";
        Cml.functional "shipsTo" ~src:"Order" ~dst:"Address";
        Cml.functional ~kind:Cml.PartOf "lineOf" ~src:"LineItem" ~dst:"Order";
        Cml.functional ~total:true "itemProduct" ~src:"LineItem" ~dst:"Product";
      ]
    [
      Cml.cls ~id:[ "custid" ] "Customer" [ "custid"; "custname" ];
      Cml.cls "PremiumCustomer" [ "tier" ];
      Cml.cls ~id:[ "orderno" ] "Order" [ "orderno"; "odate" ];
      Cml.cls ~id:[ "sku" ] "Product" [ "sku"; "pname"; "price" ];
      Cml.cls ~id:[ "lineno" ] "LineItem" [ "lineno"; "qty" ];
      Cml.cls ~id:[ "addr" ] "Address" [ "addr" ];
    ]

let shop_b =
  Cml.make ~name:"shopB"
    ~binaries:
      [
        Cml.functional ~total:true "boughtBy" ~src:"Purchase" ~dst:"Client";
        Cml.functional ~kind:Cml.PartOf "entryOf" ~src:"Entry" ~dst:"Purchase";
        Cml.functional ~total:true "entryGoods" ~src:"Entry" ~dst:"Goods";
      ]
    [
      Cml.cls ~id:[ "clientid" ] "Client" [ "clientid"; "clientname" ];
      Cml.cls ~id:[ "pno" ] "Purchase" [ "pno"; "pdate" ];
      Cml.cls ~id:[ "gid" ] "Goods" [ "gid"; "gname"; "cost" ];
      Cml.cls ~id:[ "eno" ] "Entry" [ "eno"; "amount" ];
    ]

(* Every discovery above and in examples/ontology_alignment.ml, pinned
   as the MD5 of its ranked results: both queries, the exact score and
   the covered correspondences, in rank order. Re-recorded when
   [Atom.pp] boxed each atom: with whitespace removed, each text equals
   the earlier one. *)
let pinned_cases =
  [
    ( "functional pair",
      onto_a,
      onto_b,
      [
        c ~src:("Person", "pname") ~tgt:("Employee", "ename");
        c ~src:("Department", "dname") ~tgt:("Unit", "uname");
      ],
      "5a29f5027e9a667d70c5785a2493293c" );
    ( "partOf disambiguation",
      onto_a,
      onto_b,
      [
        c ~src:("Department", "dname") ~tgt:("Unit", "uname");
        c ~src:("School", "sname") ~tgt:("Division", "divname");
      ],
      "20d025dab1f027b1a9a0b9fa3f3c8e18" );
    ( "many-many pair",
      onto_a,
      onto_b,
      [
        c ~src:("Person", "pname") ~tgt:("Employee", "ename");
        c ~src:("Document", "doctitle") ~tgt:("Report", "rtitle");
      ],
      "678f462b2549b229e405b8eabd59e464" );
    ( "no correspondences",
      onto_a,
      onto_b,
      [],
      "d41d8cd98f00b204e9800998ecf8427e" );
    ( "customer of an order",
      shop_a,
      shop_b,
      [
        c ~src:("Customer", "custname") ~tgt:("Client", "clientname");
        c ~src:("Order", "odate") ~tgt:("Purchase", "pdate");
      ],
      "b90f9232a21cc31eac0c98b4923fb349" );
    ( "product of a line item",
      shop_a,
      shop_b,
      [
        c ~src:("Product", "pname") ~tgt:("Goods", "gname");
        c ~src:("LineItem", "qty") ~tgt:("Entry", "amount");
        c ~src:("Order", "odate") ~tgt:("Purchase", "pdate");
      ],
      "4844796b3fd9300bce29482113ba28a3" );
  ]

let results_digest rs =
  let attr (cls, a) = cls ^ "." ^ a in
  List.map
    (fun (r : Cm_discover.result) ->
      Fmt.str "%a | %a | %h | %s" Query.pp r.Cm_discover.src_query Query.pp
        r.Cm_discover.tgt_query r.Cm_discover.score
        (String.concat ", "
           (List.map
              (fun (k : Cm_discover.corr) ->
                attr k.Cm_discover.cc_src ^ " -> " ^ attr k.Cm_discover.cc_tgt)
              r.Cm_discover.covered)))
    rs
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_result_digests () =
  List.iter
    (fun (label, source, target, corrs, digest) ->
      Alcotest.(check string) (label ^ " results digest") digest
        (results_digest (Cm_discover.discover ~source ~target ~corrs ())))
    pinned_cases

let suite =
  [
    ( "cm_discover",
      [
        Alcotest.test_case "functional pair" `Quick test_functional_pair;
        Alcotest.test_case "partOf disambiguation" `Quick test_partof_disambiguation;
        Alcotest.test_case "many-many pair" `Quick test_many_many_pair;
        Alcotest.test_case "unknown attribute" `Quick test_unknown_attribute_rejected;
        Alcotest.test_case "no correspondences" `Quick test_no_corrs;
        Alcotest.test_case "result digests" `Quick test_result_digests;
      ] );
  ]
