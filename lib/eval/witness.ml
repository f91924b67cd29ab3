module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Query = Smg_cq.Query
module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover

(* Deterministic pseudo-random stream (no Random: reproducibility). *)
let mix seed i j = ((seed * 1103515245) + (i * 12345) + (j * 2654435761)) land 0x3FFFFFFF

let populate ?(rows_per_table = 4) ?(seed = 42) schema =
  let n = max 0 rows_per_table in
  (* Pooled constants: the same small value domain is used for every
     column, so natural joins frequently hit. *)
  let pool k = Value.VString (Printf.sprintf "c%d" (k mod 7)) in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (t : Schema.table) ->
      let header = Schema.column_names t in
      Hashtbl.replace rows t.Schema.tbl_name
        (Array.init n (fun i ->
             Array.of_list
               (List.mapi
                  (fun j c ->
                    (* key columns get row-unique values, others pooled *)
                    if List.mem c t.Schema.key then
                      Value.VString
                        (Printf.sprintf "k_%s_%d_%d" t.Schema.tbl_name i j)
                    else pool (mix seed i j))
                  header))))
    schema.Schema.tables;
  (* Close every reference in one pass: each RIC overwrites its
     from-cells in row [i] with the to-cells of parent row
     [(i + offset) mod n], the offset seeded per RIC. A RIC runs after
     every RIC that writes the cells it copies, so a key is final
     before anything copies it (a cycle of such writes runs in
     declaration order). Every table has [n] rows, so the rotation is
     a bijection between parent and child rows: a key made of copied
     keys stays unique, and a RIC cycle needs no new rows. *)
  let col_pos (t : string) c =
    let rec go i = function
      | [] -> invalid_arg ("witness: unknown column " ^ t ^ "." ^ c)
      | c' :: rest -> if String.equal c c' then i else go (i + 1) rest
    in
    go 0 (Schema.column_names (Schema.find_table_exn schema t))
  in
  let writes (k, (s : Schema.ric)) (k', (r : Schema.ric)) =
    k <> k'
    && String.equal s.Schema.from_table r.Schema.to_table
    && List.exists (fun c -> List.mem c r.Schema.to_cols) s.Schema.from_cols
  in
  let rec order = function
    | [] -> []
    | pending -> (
        match
          List.partition
            (fun r -> not (List.exists (fun s -> writes s r) pending))
            pending
        with
        | [], r :: blocked -> r :: order blocked
        | ready, blocked -> ready @ order blocked)
  in
  if n > 0 then
    List.iter
      (fun (k, (r : Schema.ric)) ->
        let parents = Hashtbl.find rows r.Schema.to_table in
        let fpos = List.map (col_pos r.Schema.from_table) r.Schema.from_cols in
        let tpos = List.map (col_pos r.Schema.to_table) r.Schema.to_cols in
        let offset = mix seed k n mod n in
        Array.iteri
          (fun i row ->
            let parent = parents.((i + offset) mod n) in
            List.iter2 (fun f t -> row.(f) <- parent.(t)) fpos tpos)
          (Hashtbl.find rows r.Schema.from_table))
      (order (List.mapi (fun k r -> (k, r)) schema.Schema.rics));
  (* set semantics without [Instance.add_tuple]'s linear scan: only a
     keyless table can repeat a row *)
  List.fold_left
    (fun inst (t : Schema.table) ->
      let seen = Hashtbl.create n in
      let keep acc row =
        let k = Instance.tuple_key row in
        if Hashtbl.mem seen k then acc
        else (
          Hashtbl.add seen k ();
          row :: acc)
      in
      match Array.fold_left keep [] (Hashtbl.find rows t.Schema.tbl_name) with
      | [] -> inst
      | tuples ->
          Instance.set inst t.Schema.tbl_name
            { Instance.header = Schema.column_names t; tuples })
    Instance.empty schema.Schema.tables

(* Populated witnesses are pure functions of (schema, rows, seed), and
   both the CLI's FILE-witness path and the HTTP registry regenerate
   them per invocation at identical keys — memoize process-wide. The
   schema participates via its printed form, so two structurally equal
   schemas share an entry. Entries are never evicted: the witness
   sizes in play are bounded by the caller's --size. *)
let populate_cache : (string, Instance.t) Hashtbl.t = Hashtbl.create 8
let populate_lock = Mutex.create ()

let populate_cached ?(rows_per_table = 4) ?(seed = 42) schema =
  let key =
    Printf.sprintf "%d:%d:%s" rows_per_table seed
      (Digest.to_hex (Digest.string (Fmt.str "%a" Schema.pp schema)))
  in
  Mutex.lock populate_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock populate_lock)
    (fun () ->
      match Hashtbl.find_opt populate_cache key with
      | Some inst -> inst
      | None ->
          let inst = populate ~rows_per_table ~seed schema in
          Hashtbl.add populate_cache key inst;
          inst)

type verdict = {
  w_case : string;
  w_agree : bool;
  w_discovered : int;
  w_benchmark : int;
}

let answers schema inst (q : Query.t) =
  let rel = Query.eval schema inst q in
  List.map
    (fun tup -> List.map Value.to_string (Array.to_list tup))
    rel.Smg_relational.Instance.tuples
  |> List.sort compare

let check_case ?rows_per_table ?(seed = 42) (scen : Scenario.t)
    (case : Scenario.case) =
  let generated =
    Experiments.run_method Experiments.Semantic scen case
  in
  let schema = scen.Scenario.source.Discover.schema in
  let hit =
    List.find_opt
      (fun m ->
        List.exists
          (fun b ->
            Mapping.same_under ~source:schema
              ~target:scen.Scenario.target.Discover.schema m b)
          case.Scenario.benchmark)
      generated
  in
  match (hit, case.Scenario.benchmark) with
  | Some m, b :: _ ->
      let inst = populate ?rows_per_table ~seed schema in
      let got = answers schema inst m.Mapping.src_query in
      let expected = answers schema inst b.Mapping.src_query in
      Some
        {
          w_case = case.Scenario.case_name;
          w_agree = got = expected;
          w_discovered = List.length got;
          w_benchmark = List.length expected;
        }
  | _, _ -> None

let check_scenario ?seed scen =
  List.filter_map (fun case -> check_case ?seed scen case) scen.Scenario.cases

let pp_verdict ppf v =
  Fmt.pf ppf "%-28s %s (answers: discovered %d, benchmark %d)" v.w_case
    (if v.w_agree then "agree" else "DISAGREE")
    v.w_discovered v.w_benchmark
