(* The work-stealing domain pool: deque semantics under concurrent
   steals, pool determinism and fault propagation, budget split/absorb
   accounting, and the end-to-end invariance guarantees — byte-identical
   discovery and hom-equivalent exchange for any domain count. *)

module Deque = Smg_parallel.Deque
module Pool = Smg_parallel.Pool
module Budget = Smg_robust.Budget
module Discover = Smg_core.Discover
module Mapping = Smg_cq.Mapping
module Engine = Smg_exchange.Engine
module Instance = Smg_relational.Instance
module Equiv = Smg_verify.Equiv

(* ---- deque ------------------------------------------------------------- *)

let test_deque_lifo () =
  let d = Deque.create () in
  for i = 1 to 5 do
    Deque.push d i
  done;
  Alcotest.(check int) "size" 5 (Deque.size d);
  for i = 5 downto 1 do
    Alcotest.(check (option int)) "pop order" (Some i) (Deque.pop d)
  done;
  Alcotest.(check (option int)) "empty" None (Deque.pop d)

let test_deque_steal_fifo () =
  let d = Deque.create () in
  for i = 1 to 5 do
    Deque.push d i
  done;
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop newest" (Some 5) (Deque.pop d);
  Alcotest.(check (option int)) "steal third" (Some 3) (Deque.steal d);
  Alcotest.(check (option int)) "pop last" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "drained (steal)" None (Deque.steal d);
  Alcotest.(check (option int)) "drained (pop)" None (Deque.pop d)

let test_deque_grows () =
  (* push far past the initial 32-slot buffer, through several growths *)
  let d = Deque.create () in
  let n = 10_000 in
  for i = 1 to n do
    Deque.push d i
  done;
  let sum = ref 0 in
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        sum := !sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every element survived growth" (n * (n + 1) / 2) !sum

(* every pushed element is taken exactly once, split between the owner
   popping and concurrent thieves on real domains *)
let test_deque_concurrent_steal () =
  let d = Deque.create () in
  let n = 20_000 and thieves = 3 in
  let stolen = Array.init thieves (fun _ -> Atomic.make 0) in
  let live = Atomic.make true in
  let domains =
    Array.init thieves (fun t ->
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Deque.steal d with
              | Some v -> Atomic.set stolen.(t) (Atomic.get stolen.(t) + v)
              | None -> if not (Atomic.get live) then continue := false
            done))
  in
  let popped = ref 0 in
  for i = 1 to n do
    Deque.push d i;
    (* interleave pops so owner and thieves race on the same elements *)
    if i mod 2 = 0 then
      match Deque.pop d with Some v -> popped := !popped + v | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
        popped := !popped + v;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set live false;
  Array.iter Domain.join domains;
  let total =
    Array.fold_left (fun acc a -> acc + Atomic.get a) !popped stolen
  in
  Alcotest.(check int) "each element taken exactly once" (n * (n + 1) / 2)
    total

(* ---- pool -------------------------------------------------------------- *)

let test_pool_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 1000 Fun.id in
      let out = Pool.map pool (fun i -> i * i) input in
      Alcotest.(check bool) "squares in order" true
        (out = Array.map (fun i -> i * i) input))

let test_pool_map_uneven () =
  (* skewed task costs exercise stealing; order must still hold *)
  Pool.with_pool ~domains:4 (fun pool ->
      let work i =
        let n = if i mod 97 = 0 then 20_000 else 10 in
        let acc = ref i in
        for _ = 1 to n do
          acc := (!acc * 7) mod 1_000_003
        done;
        (i, !acc)
      in
      let out = Pool.map pool ~chunk:1 work (Array.init 500 Fun.id) in
      let seq = Array.map work (Array.init 500 Fun.id) in
      Alcotest.(check bool) "matches sequential" true (out = seq))

let test_pool_single_domain () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "size 1" 1 (Pool.size pool);
      let out = Pool.map pool (fun i -> i + 1) (Array.init 10 Fun.id) in
      Alcotest.(check bool) "sequential fallback" true
        (out = Array.init 10 (fun i -> i + 1)))

exception Boom

let test_pool_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool ~chunk:1
               (fun i -> if i = 37 then raise Boom else i)
               (Array.init 100 Fun.id));
          false
        with Boom -> true
      in
      Alcotest.(check bool) "task exception re-raised after join" true raised;
      (* the pool survives a faulted section *)
      let out = Pool.map pool (fun i -> i * 2) (Array.init 8 Fun.id) in
      Alcotest.(check bool) "pool usable afterwards" true
        (out = Array.init 8 (fun i -> i * 2)))

let test_pool_nested_inline () =
  (* a task re-entering the pool must run its section inline, not
     deadlock waiting for workers that are all busy *)
  Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Pool.map pool ~chunk:1
          (fun i ->
            let inner =
              Pool.map pool (fun j -> j + i) (Array.init 4 Fun.id)
            in
            Array.fold_left ( + ) 0 inner)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool) "nested sections complete" true
        (out = Array.init 8 (fun i -> 6 + (4 * i))))

let test_pool_for () =
  Pool.with_pool ~domains:4 (fun pool ->
      let slots = Array.make 256 (-1) in
      Pool.for_ pool 0 256 (fun i -> slots.(i) <- i);
      Alcotest.(check bool) "every index visited once" true
        (slots = Array.init 256 Fun.id))

(* ---- budget split / absorb -------------------------------------------- *)

let test_budget_split_shares () =
  let b = Budget.create ~fuel:10 () in
  let subs = Budget.split b ~parts:3 in
  Alcotest.(check (list (option int)))
    "4,3,3 fuel shares"
    [ Some 4; Some 3; Some 3 ]
    (List.map Budget.remaining_fuel subs)

let test_budget_split_unlimited () =
  let b = Budget.unlimited () in
  let subs = Budget.split b ~parts:4 in
  Alcotest.(check bool) "children unlimited" true
    (List.for_all (fun s -> Budget.remaining_fuel s = None) subs)

let test_budget_absorb_accounting () =
  let b = Budget.create ~fuel:10 () in
  let subs = Budget.split b ~parts:2 in
  (* child 0 burns 3 of its 5; child 1 untouched *)
  ignore (Budget.burn (List.nth subs 0) 3);
  List.iter (Budget.absorb b) subs;
  Alcotest.(check (option int)) "parent charged what children consumed"
    (Some 7) (Budget.remaining_fuel b);
  Alcotest.(check bool) "parent not spent" true (Budget.exhausted b = None)

let test_budget_absorb_exhaustion () =
  let b = Budget.create ~fuel:4 () in
  let subs = Budget.split b ~parts:2 in
  List.iter (fun s -> ignore (Budget.burn s 2)) subs;
  List.iter (Budget.absorb b) subs;
  Alcotest.(check (option int)) "all fuel consumed" (Some 0)
    (Budget.remaining_fuel b);
  Alcotest.(check bool) "parent spent by fuel" true
    (Budget.exhausted b = Some Budget.Fuel)

let test_budget_absorb_child_fuel_not_sticky () =
  (* a child hitting its own share does not spend the parent while the
     parent still has fuel left overall *)
  let b = Budget.create ~fuel:10 () in
  let subs = Budget.split b ~parts:2 in
  let c0 = List.nth subs 0 in
  Alcotest.(check bool) "child exhausts its share" false (Budget.burn c0 6);
  List.iter (Budget.absorb b) subs;
  Alcotest.(check (option int)) "parent keeps the rest" (Some 5)
    (Budget.remaining_fuel b);
  Alcotest.(check bool) "parent not spent" true (Budget.exhausted b = None)

(* worker budget exhaustion through the pool: tasks burn per-task
   shares; exhausted tasks report partial results and the parent
   absorbs a consistent total *)
let test_pool_worker_exhaustion () =
  Pool.with_pool ~domains:4 (fun pool ->
      let b = Budget.create ~fuel:40 () in
      let n = 8 in
      let subs = Array.of_list (Budget.split b ~parts:n) in
      let results =
        Pool.map pool ~chunk:1
          (fun i ->
            let sub = subs.(i) in
            (* each task wants 10 units but holds a share of 5 *)
            let done_ = ref 0 in
            (try
               for _ = 1 to 10 do
                 Budget.tick_exn sub;
                 incr done_
               done
             with Budget.Exhausted _ -> ());
            !done_)
          (Array.init n Fun.id)
      in
      Array.iter (Budget.absorb b) subs;
      Alcotest.(check bool) "every task did its share and no more" true
        (Array.for_all (fun d -> d = 5) results);
      Alcotest.(check (option int)) "parent fully charged" (Some 0)
        (Budget.remaining_fuel b);
      Alcotest.(check bool) "parent spent" true
        (Budget.exhausted b = Some Budget.Fuel))

(* ---- end-to-end invariance -------------------------------------------- *)

let datasets = lazy (Smg_eval.Datasets.all ())

let scenario name =
  List.find
    (fun s -> s.Smg_eval.Scenario.scen_name = name)
    (Lazy.force datasets)

let fingerprint (o : Discover.outcome) =
  List.map
    (fun (m : Mapping.t) ->
      ( m.Mapping.m_name,
        m.Mapping.score,
        Fmt.str "%a" Smg_cq.Dependency.pp_tgd (Mapping.to_tgd m) ))
    o.Discover.o_mappings

let discover_at ?fuel domains (scen : Smg_eval.Scenario.t)
    (case : Smg_eval.Scenario.case) =
  let budget = Option.map (fun fuel -> Budget.create ~fuel ()) fuel in
  let run pool =
    Discover.discover_bounded ?budget ?pool ~source:scen.Smg_eval.Scenario.source
      ~target:scen.Smg_eval.Scenario.target ~corrs:case.Smg_eval.Scenario.corrs
      ()
  in
  if domains <= 1 then run None
  else Pool.with_pool ~domains (fun pool -> run (Some pool))

let dblp_engine_inputs =
  lazy
    (let scen = scenario "DBLP" in
     let source = scen.Smg_eval.Scenario.source.Discover.schema in
     let target = scen.Smg_eval.Scenario.target.Discover.schema in
     let mappings =
       List.concat_map
         (fun (case : Smg_eval.Scenario.case) ->
           match
             Smg_eval.Experiments.run_method Smg_eval.Experiments.Semantic scen
               case
           with
           | [] -> []
           | best :: _ -> Mapping.outer_variants ~target best)
         scen.Smg_eval.Scenario.cases
     in
     (source, target, mappings))

let engine_at ?budget domains inst =
  let source, target, mappings = Lazy.force dblp_engine_inputs in
  let run pool = Engine.run_bounded ?budget ?pool ~source ~target ~mappings inst in
  if domains <= 1 then run None
  else Pool.with_pool ~domains (fun pool -> run (Some pool))

(* qcheck: for any curated case and any domain count in {1,2,4}, pooled
   discovery returns the byte-identical ranked list *)
let prop_discover_identical =
  let cases =
    List.concat_map
      (fun (s : Smg_eval.Scenario.t) ->
        List.map (fun c -> (s, c)) s.Smg_eval.Scenario.cases)
      (Lazy.force datasets)
  in
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair (int_range 0 (List.length cases - 1)) (oneofl [ 2; 4 ]))
      ~print:(fun (i, d) ->
        let s, c = List.nth cases i in
        Printf.sprintf "%s/%s at %d domain(s)" s.Smg_eval.Scenario.scen_name
          c.Smg_eval.Scenario.case_name d)
  in
  QCheck.Test.make ~name:"pooled discovery is byte-identical" ~count:12 arb
    (fun (i, domains) ->
      let scen, case = List.nth cases i in
      fingerprint (discover_at 1 scen case)
      = fingerprint (discover_at domains scen case))

(* qcheck: pooled exchange is hom-equivalent to the sequential run for
   any domain count and source size *)
let prop_engine_equivalent =
  let arb =
    QCheck.make
      QCheck.Gen.(triple (oneofl [ 2; 4 ]) (int_range 2 12) (int_range 0 99))
      ~print:(fun (d, rows, seed) ->
        Printf.sprintf "%d domain(s), %d rows/table, seed %d" d rows seed)
  in
  QCheck.Test.make ~name:"pooled exchange is hom-equivalent" ~count:8 arb
    (fun (domains, rows, seed) ->
      let source, _, _ = Lazy.force dblp_engine_inputs in
      let inst = Smg_eval.Witness.populate ~rows_per_table:rows ~seed source in
      match (engine_at 1 inst, engine_at domains inst) with
      | Engine.Complete a, Engine.Complete b ->
          Equiv.equivalent a.Engine.r_target b.Engine.r_target
      | _ -> false)

(* a pooled run out of fuel still yields a sound partial prefix: it
   maps homomorphically into the complete sequential output *)
let test_engine_pool_partial_prefix () =
  let source, _, _ = Lazy.force dblp_engine_inputs in
  let inst = Smg_eval.Witness.populate ~rows_per_table:16 ~seed:7 source in
  let full =
    match engine_at 1 inst with
    | Engine.Complete rep -> rep.Engine.r_target
    | _ -> Alcotest.fail "unbudgeted run should complete"
  in
  let checked = ref 0 in
  List.iter
    (fun fuel ->
      match engine_at ~budget:(Budget.create ~fuel ()) 4 inst with
      | Engine.Budget_exhausted (_, rep) ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "prefix at fuel %d embeds into the full output"
               fuel)
            true
            (Equiv.hom_into rep.Engine.r_target full)
      | Engine.Complete rep ->
          (* enough fuel: then it must be the full answer *)
          Alcotest.(check bool)
            (Printf.sprintf "complete at fuel %d is hom-equivalent" fuel)
            true
            (Equiv.equivalent rep.Engine.r_target full)
      | Engine.Failed msg -> Alcotest.fail msg)
    [ 50; 200; 800; 1_000_000 ];
  Alcotest.(check bool) "at least one budgeted run was partial" true
    (!checked > 0)

(* fuel-budgeted pooled discovery is still deterministic: the per-task
   split makes accounting independent of the steal schedule *)
let test_discover_budget_deterministic () =
  let scen = scenario "Mondial" in
  let case = List.hd scen.Smg_eval.Scenario.cases in
  List.iter
    (fun fuel ->
      let a = fingerprint (discover_at ~fuel 4 scen case) in
      let b = fingerprint (discover_at ~fuel 4 scen case) in
      let c = fingerprint (discover_at ~fuel 2 scen case) in
      Alcotest.(check bool)
        (Printf.sprintf "stable at fuel %d" fuel)
        true
        (a = b && a = c))
    [ 100; 10_000 ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "parallel.deque",
      [
        Alcotest.test_case "owner pop is LIFO" `Quick test_deque_lifo;
        Alcotest.test_case "steal is FIFO" `Quick test_deque_steal_fifo;
        Alcotest.test_case "growth keeps elements" `Quick test_deque_grows;
        Alcotest.test_case "concurrent steals take each element once" `Quick
          test_deque_concurrent_steal;
      ] );
    ( "parallel.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "map under skewed load" `Quick test_pool_map_uneven;
        Alcotest.test_case "domains=1 sequential fallback" `Quick
          test_pool_single_domain;
        Alcotest.test_case "task exception propagates" `Quick
          test_pool_exception;
        Alcotest.test_case "nested sections run inline" `Quick
          test_pool_nested_inline;
        Alcotest.test_case "for_ covers the range" `Quick test_pool_for;
      ] );
    ( "parallel.budget",
      [
        Alcotest.test_case "split shares fuel" `Quick test_budget_split_shares;
        Alcotest.test_case "split of unlimited" `Quick
          test_budget_split_unlimited;
        Alcotest.test_case "absorb charges consumption" `Quick
          test_budget_absorb_accounting;
        Alcotest.test_case "absorb detects exhaustion" `Quick
          test_budget_absorb_exhaustion;
        Alcotest.test_case "child share is not parent exhaustion" `Quick
          test_budget_absorb_child_fuel_not_sticky;
        Alcotest.test_case "worker exhaustion is a sound partial" `Quick
          test_pool_worker_exhaustion;
      ] );
    ( "parallel.invariance",
      [
        q prop_discover_identical;
        q prop_engine_equivalent;
        Alcotest.test_case "pooled partial prefix is sound" `Quick
          test_engine_pool_partial_prefix;
        Alcotest.test_case "budgeted pooled discovery deterministic" `Quick
          test_discover_budget_deterministic;
      ] );
  ]
