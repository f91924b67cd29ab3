module Schema = Smg_relational.Schema
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query
module Mapping = Smg_cq.Mapping

type logical_relation = { lr_root : string; lr_atoms : Atom.t list }

let var_of ~table ~occurrence ~column =
  Printf.sprintf "%s%d_%s" table occurrence column

let table_atom schema table ~occurrence =
  let t = Schema.find_table_exn schema table in
  Atom.atom table
    (List.map
       (fun c -> Atom.Var (var_of ~table ~occurrence ~column:c))
       (Schema.column_names t))

let arg_of schema (a : Atom.t) column =
  let t = Schema.find_table_exn schema a.Atom.pred in
  let rec go cols args =
    match (cols, args) with
    | c :: _, v :: _ when String.equal c column -> v
    | _ :: cs, _ :: vs -> go cs vs
    | _, _ -> invalid_arg (Printf.sprintf "no column %s in %s" column a.pred)
  in
  go (Schema.column_names t) a.args

(* Chase the RICs from one root table.  Each (atom, ric) pair fires at
   most once; a referenced atom is reused when one with the same
   referenced-column variables already exists (this keeps cyclic RICs
   finite and merges shared targets, as in Clio's logical relations). *)
let chase_from ?(max_atoms = 24) schema root =
  let occ = Hashtbl.create 8 in
  let next_occ table =
    let n = Option.value ~default:0 (Hashtbl.find_opt occ table) in
    Hashtbl.replace occ table (n + 1);
    n
  in
  let atoms = ref [ table_atom schema root ~occurrence:(next_occ root) ] in
  let applied = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iteri
      (fun i (a : Atom.t) ->
        List.iter
          (fun (r : Schema.ric) ->
            let key = (i, r.ric_name) in
            if
              String.equal a.Atom.pred r.from_table
              && (not (Hashtbl.mem applied key))
              && List.length !atoms < max_atoms
            then begin
              Hashtbl.replace applied key ();
              let ref_vars = List.map (arg_of schema a) r.from_cols in
              let exists =
                List.exists
                  (fun (b : Atom.t) ->
                    String.equal b.Atom.pred r.to_table
                    && List.for_all2
                         (fun c v -> Atom.equal_term (arg_of schema b c) v)
                         r.to_cols ref_vars)
                  !atoms
              in
              if not exists then begin
                let o = next_occ r.to_table in
                let t = Schema.find_table_exn schema r.to_table in
                let pairings = List.combine r.to_cols ref_vars in
                let args =
                  List.map
                    (fun c ->
                      match List.assoc_opt c pairings with
                      | Some v -> v
                      | None ->
                          Atom.Var
                            (var_of ~table:r.to_table ~occurrence:o ~column:c))
                    (Schema.column_names t)
                in
                atoms := !atoms @ [ Atom.atom r.to_table args ];
                changed := true
              end
            end)
          schema.Schema.rics)
      !atoms
  done;
  { lr_root = root; lr_atoms = !atoms }

let logical_relations ?max_atoms schema =
  List.map
    (fun (t : Schema.table) -> chase_from ?max_atoms schema t.Schema.tbl_name)
    schema.Schema.tables

(* Remove unnecessary joins ([Fuxman et al. VLDB'06]): drop leaf atoms
   (sharing variables with at most one other atom) that do not
   contribute correspondence-covered attributes. The *first* occurrence
   of each covered table supplies the attributes; later chased
   occurrences of the same table are prunable, which keeps cyclic RIC
   chains from surviving into the mapping. Chased logical relations are
   tree-shaped, so leaf pruning finds the minimal connected sub-join
   containing the required atoms. *)
let prune_atoms atoms ~required_tables =
  let atoms = Array.of_list atoms in
  let n = Array.length atoms in
  let required = Array.make n false in
  List.iter
    (fun t ->
      let rec first i =
        if i < n then
          if String.equal atoms.(i).Atom.pred t then required.(i) <- true
          else first (i + 1)
      in
      first 0)
    required_tables;
  (* which atoms share a variable, and with how many live atoms each
     does: removing an atom only lowers its neighbours' counts *)
  let shares (a : Atom.t) (b : Atom.t) =
    List.exists
      (fun t ->
        match t with
        | Atom.Var _ -> List.exists (Atom.equal_term t) b.Atom.args
        | Atom.Cst _ -> false)
      a.Atom.args
  in
  let adj =
    Array.init n (fun i ->
        Array.init n (fun j -> i <> j && shares atoms.(i) atoms.(j)))
  in
  let degree =
    Array.map (Array.fold_left (fun d s -> if s then d + 1 else d) 0) adj
  in
  let alive = Array.make n true in
  let rec loop live =
    let rec removable i =
      if i = n then None
      else if alive.(i) && (not required.(i)) && degree.(i) <= 1 && live > 1
      then Some i
      else removable (i + 1)
    in
    match removable 0 with
    | None -> ()
    | Some k ->
        alive.(k) <- false;
        Array.iteri (fun j s -> if s then degree.(j) <- degree.(j) - 1) adj.(k);
        loop (live - 1)
  in
  loop n;
  List.filteri (fun i _ -> alive.(i)) (Array.to_list atoms)

let generate ~source ~target ~corrs =
  let src_lrs = logical_relations source in
  let tgt_lrs = logical_relations target in
  let tables_of lr =
    List.sort_uniq compare (List.map (fun (a : Atom.t) -> a.Atom.pred) lr.lr_atoms)
  in
  (* Pruning depends only on the logical relation and the required
     tables, and most pairs repeat one: memoize it, one memo per side,
     since both schemas may name a table alike. *)
  let pruner () =
    let memo = Hashtbl.create 32 in
    fun lr required ->
      let key = (lr.lr_root, required) in
      match Hashtbl.find_opt memo key with
      | Some atoms -> atoms
      | None ->
          let atoms = prune_atoms lr.lr_atoms ~required_tables:required in
          Hashtbl.add memo key atoms;
          atoms
  in
  let prune_src = pruner () and prune_tgt = pruner () in
  let candidates =
    List.concat_map
      (fun s_lr ->
        let s_tables = tables_of s_lr in
        List.filter_map
          (fun t_lr ->
            let t_tables = tables_of t_lr in
            let covered =
              List.filter
                (fun (c : Mapping.corr) ->
                  List.mem (fst c.Mapping.c_src) s_tables
                  && List.mem (fst c.Mapping.c_tgt) t_tables)
                corrs
            in
            if covered = [] then None
            else begin
              let s_required =
                List.sort_uniq compare
                  (List.map (fun c -> fst c.Mapping.c_src) covered)
              in
              let t_required =
                List.sort_uniq compare
                  (List.map (fun c -> fst c.Mapping.c_tgt) covered)
              in
              let s_atoms = prune_src s_lr s_required in
              let t_atoms = prune_tgt t_lr t_required in
              let first_atom atoms table =
                List.find
                  (fun (a : Atom.t) -> String.equal a.Atom.pred table)
                  atoms
              in
              let src_head =
                List.map
                  (fun c ->
                    let t, col = c.Mapping.c_src in
                    arg_of source (first_atom s_atoms t) col)
                  covered
              in
              let tgt_head =
                List.map
                  (fun c ->
                    let t, col = c.Mapping.c_tgt in
                    arg_of target (first_atom t_atoms t) col)
                  covered
              in
              let name =
                Printf.sprintf "ric:%s→%s" s_lr.lr_root t_lr.lr_root
              in
              let score =
                float_of_int (List.length s_atoms + List.length t_atoms)
              in
              Some
                (Mapping.make ~name ~score
                   ~src_query:(Query.make ~name:"src" ~head:src_head s_atoms)
                   ~tgt_query:(Query.make ~name:"tgt" ~head:tgt_head t_atoms)
                   ~covered ())
            end)
          tgt_lrs)
      src_lrs
  in
  let deduped =
    List.fold_left
      (fun acc m ->
        if List.exists (Mapping.same m) acc then acc else m :: acc)
      [] candidates
  in
  List.sort (fun a b -> compare a.Mapping.score b.Mapping.score) deduped

let pp_logical_relation ppf lr =
  Fmt.pf ppf "@[<hov2>LR(%s):@ %a@]" lr.lr_root
    (Fmt.list ~sep:(Fmt.any " ⋈ ") Atom.pp)
    lr.lr_atoms
