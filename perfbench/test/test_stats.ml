open Perfbench_core

let feq = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_quantile () =
  Alcotest.check feq "median of odd" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.check feq "median of even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "interpolated q" 1.3 (Stats.quantile 0.1 [ 1.; 4. ])

let test_tail_refusal () =
  let ok q n =
    match Stats.tail q (range n) with Ok _ -> true | Error _ -> false
  in
  Alcotest.(check bool) "p90 of 100 has 10 beyond" true (ok 0.9 100);
  Alcotest.(check bool) "p90 of 99 refused" false (ok 0.9 99);
  Alcotest.(check bool) "p99 of 1000 has 10 beyond" true (ok 0.99 1000);
  Alcotest.(check bool) "p99 of 999 refused" false (ok 0.99 999);
  Alcotest.(check bool) "p50 of 19 refused" false (ok 0.5 19);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond ~n:1000 0.99)

let test_lateness () =
  let s due sent completed = { Stats.due; sent; completed } in
  (* every 10 ms; the first request stalls for 25 ms, so the second is
     sent late behind it — queueing, not generator lateness — and its
     latency counts from its due time *)
  let xs = [ s 0. 0. 25.; s 10. 25. 26.; s 30. 30.5 31.; s 40. 41. 42. ] in
  Alcotest.(check (list feq)) "latency from due time" [ 25.; 16.; 1.; 2. ]
    (List.map Stats.latency xs);
  Alcotest.(check (list feq)) "generator lateness" [ 0.; 0.; 0.5; 1. ]
    (Stats.lateness xs);
  Alcotest.check feq "schedule" 35. (Stats.schedule ~start:5. ~interval:7.5 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail refusal" `Quick test_tail_refusal;
          Alcotest.test_case "open-loop lateness" `Quick test_lateness;
        ] );
    ]
