module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Query = Smg_cq.Query
module Mapping = Smg_cq.Mapping
module Discover = Smg_core.Discover

(* Deterministic pseudo-random stream (no Random: reproducibility). *)
let mix seed i j = ((seed * 1103515245) + (i * 12345) + (j * 2654435761)) land 0x3FFFFFFF

let repair_cap = 32

let populate ?(rows_per_table = 4) ?(seed = 42) schema =
  (* Pooled constants: the same small value domain is used for every
     column, so natural joins and RIC references frequently hit. *)
  let pool k = Value.VString (Printf.sprintf "c%d" (k mod 7)) in
  let base =
    List.fold_left
      (fun inst (t : Schema.table) ->
        let header = Schema.column_names t in
        let rec add inst i =
          if i >= rows_per_table then inst
          else begin
            let row =
              Array.of_list
                (List.mapi
                   (fun j c ->
                     (* key columns get row-unique values, others pooled *)
                     if List.mem c t.Schema.key then
                       Value.VString
                         (Printf.sprintf "k_%s_%d_%d" t.Schema.tbl_name i j)
                     else pool (mix seed i j))
                   header)
            in
            add (Instance.add_tuple inst t.Schema.tbl_name ~header row) (i + 1)
          end
        in
        add inst 0)
      Instance.empty schema.Schema.tables
  in
  (* Repair the RICs directly: for every dangling reference insert the
     referenced row (labelled nulls outside the referenced columns),
     probing a hash table of the referenced cells per RIC instead of
     chasing the RIC tgds — the chase rescans every pair of rows per
     round, which dominates generation at the sizes the exchange-scale
     experiment uses. Inserted rows can dangle in turn, so rounds repeat
     to a fixpoint, bounded twice: at most 10 rounds, and no insert once
     the instance holds [repair_cap] times its base rows. A cycle of
     RICs whose rows multiply each round (a generated schema grew 4.6×
     per round to 10^7 tuples) then stops early with dangling
     references left. The built-in domains, the committed scenarios and
     the generator's documents end at most 12× their base rows (Mondial's
     target at a few rows per table) at every size measured, 1 to 5000
     rows per table, so the cap never binds on them. A repair row is new
     to its relation — it holds a fresh null, or the probe has just
     shown its referenced cells absent — so it is prepended without
     [Instance.add_tuple]'s duplicate scan. *)
  let col_pos header c =
    let rec go i = function
      | [] -> invalid_arg ("witness: unknown column " ^ c)
      | c' :: rest -> if String.equal c c' then i else go (i + 1) rest
    in
    go 0 header
  in
  let limit = repair_cap * Instance.total_tuples base in
  let size = ref (Instance.total_tuples base) in
  let rec repair inst round =
    if round >= 10 || !size >= limit then inst
    else begin
      let changed = ref false in
      let inst' =
        List.fold_left
          (fun inst (r : Schema.ric) ->
            let from_t = Schema.find_table_exn schema r.Schema.from_table in
            let to_t = Schema.find_table_exn schema r.Schema.to_table in
            let from_header = Schema.column_names from_t in
            let to_header = Schema.column_names to_t in
            let from_rel =
              Instance.relation_or_empty inst r.Schema.from_table
                ~header:from_header
            in
            let fpos = List.map (col_pos from_header) r.Schema.from_cols in
            let tpos = List.map (col_pos to_header) r.Schema.to_cols in
            let to_rel =
              Instance.relation_or_empty inst r.Schema.to_table
                ~header:to_header
            in
            let present = Hashtbl.create 64 in
            List.iter
              (fun tup ->
                Hashtbl.replace present (List.map (fun p -> tup.(p)) tpos) ())
              to_rel.Instance.tuples;
            List.fold_left
              (fun inst tup ->
                let vals = List.map (fun p -> tup.(p)) fpos in
                if Hashtbl.mem present vals || !size >= limit then inst
                else begin
                  changed := true;
                  incr size;
                  let row =
                    Array.init (List.length to_header) (fun j ->
                        let rec assoc tpos vals =
                          match (tpos, vals) with
                          | p :: _, v :: _ when p = j -> Some v
                          | _ :: ps, _ :: vs -> assoc ps vs
                          | _ -> None
                        in
                        match assoc tpos vals with
                        | Some v -> v
                        | None -> Value.fresh_null ())
                  in
                  Hashtbl.replace present vals ();
                  let to_rel =
                    Instance.relation_or_empty inst r.Schema.to_table
                      ~header:to_header
                  in
                  Instance.set inst r.Schema.to_table
                    { to_rel with Instance.tuples = row :: to_rel.Instance.tuples }
                end)
              inst from_rel.Instance.tuples)
          inst schema.Schema.rics
      in
      if !changed then repair inst' (round + 1) else inst'
    end
  in
  repair base 0

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
