module Cml = Smg_cm.Cml
module Cm_graph = Smg_cm.Cm_graph
module Schema = Smg_relational.Schema
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query

type result = { rw_query : Query.t; rw_tables : string list }

(* ---- term-level union-find with constant anchors --------------------- *)

module Tuf = struct
  type t = {
    parent : (string, string) Hashtbl.t;
    anchor : (string, Atom.term) Hashtbl.t;  (* rep -> constant *)
    preferred : (string, unit) Hashtbl.t;    (* answer variables *)
  }

  let create ~preferred_vars =
    let preferred = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace preferred v ()) preferred_vars;
    { parent = Hashtbl.create 16; anchor = Hashtbl.create 8; preferred }

  let rec find t x =
    match Hashtbl.find_opt t.parent x with
    | None -> x
    | Some p ->
        let r = find t p in
        Hashtbl.replace t.parent x r;
        r

  (* Returns false on constant conflict. *)
  let union t a b =
    let ra = find t a and rb = find t b in
    if String.equal ra rb then true
    else begin
      (* Keep a preferred (answer) variable as representative. *)
      let keep, drop =
        if Hashtbl.mem t.preferred ra then (ra, rb) else (rb, ra)
      in
      match (Hashtbl.find_opt t.anchor keep, Hashtbl.find_opt t.anchor drop) with
      | Some c1, Some c2 when not (Atom.equal_term c1 c2) -> false
      | _, c2 ->
          Hashtbl.replace t.parent drop keep;
          (match (Hashtbl.find_opt t.anchor keep, c2) with
          | None, Some c -> Hashtbl.replace t.anchor keep c
          | _, _ -> ());
          Hashtbl.remove t.anchor drop;
          true
    end

  let unify_const t x c =
    let r = find t x in
    match Hashtbl.find_opt t.anchor r with
    | Some c' -> Atom.equal_term c c'
    | None ->
        Hashtbl.replace t.anchor r c;
        true

  let resolve t = function
    | Atom.Cst _ as c -> c
    | Atom.Var x -> (
        let r = find t x in
        match Hashtbl.find_opt t.anchor r with
        | Some c -> c
        | None -> Atom.Var r)
end

(* ---- view-instance state --------------------------------------------- *)

type inst = {
  i_st : Stree.t;
  i_asg : (Stree.node_ref * string) list;  (* s-tree node -> query variable *)
  i_cols : (string * Atom.term) list;      (* column -> bound term *)
}

(* isa-equivalence of s-tree nodes (identity flows through SIsa edges) *)
let isa_key (n : Stree.node_ref) =
  Printf.sprintf "%s~%d" n.Stree.nr_class n.Stree.nr_copy

let isa_rep_fn (st : Stree.t) =
  let parent = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun (e : Stree.sedge) ->
      match e.se_kind with
      | Stree.SIsa -> union (isa_key e.se_src) (isa_key e.se_dst)
      | Stree.SRel _ | Stree.SRole _ -> ())
    st.Stree.st_edges;
  fun n -> find (isa_key n)

(* A coverage option: which s-tree, which node assignments, which column
   bindings the option contributes. *)
type opt = {
  o_st : Stree.t;
  o_asg : (Stree.node_ref * string) list;
  o_cols : (string * Atom.term) list;
}

let as_var = function
  | Atom.Var x -> x
  | Atom.Cst _ -> invalid_arg "rewrite: constant in object position"

let subsumes cm ~have ~want =
  (* Objects of class [have] are also objects of class [want]? *)
  String.equal have want || List.mem want (Cml.ancestors cm have)

let options_for cm strees (a : Atom.t) : opt list =
  match Encode.parse_pred a.Atom.pred with
  | None -> invalid_arg (Printf.sprintf "rewrite: non-CM predicate %s" a.pred)
  | Some kind -> (
      match (kind, a.Atom.args) with
      | Encode.PCls c, [ x ] ->
          let x = as_var x in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (n : Stree.node_ref) ->
                  if subsumes cm ~have:n.nr_class ~want:c then
                    Some { o_st = st; o_asg = [ (n, x) ]; o_cols = [] }
                  else None)
                st.st_nodes)
            strees
      | Encode.PRel r, [ x; y ] ->
          let x = as_var x and y = as_var y in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (e : Stree.sedge) ->
                  match e.se_kind with
                  | Stree.SRel r' when String.equal r r' ->
                      Some
                        {
                          o_st = st;
                          o_asg = [ (e.se_src, x); (e.se_dst, y) ];
                          o_cols = [];
                        }
                  | Stree.SRel _ | Stree.SRole _ | Stree.SIsa -> None)
                st.st_edges)
            strees
      | Encode.PRole (rr, ro), [ x; y ] ->
          let x = as_var x and y = as_var y in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (e : Stree.sedge) ->
                  match e.se_kind with
                  | Stree.SRole ro'
                    when String.equal ro ro'
                         && String.equal e.se_src.nr_class rr ->
                      Some
                        {
                          o_st = st;
                          o_asg = [ (e.se_src, x); (e.se_dst, y) ];
                          o_cols = [];
                        }
                  | Stree.SRole _ | Stree.SRel _ | Stree.SIsa -> None)
                st.st_edges)
            strees
      | Encode.PAttr (owner, attr), [ x; w ] ->
          let x = as_var x in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (col, n, a) ->
                  if
                    String.equal a attr
                    && Stree.declaring_class cm n.Stree.nr_class a
                       = Some owner
                  then
                    Some
                      {
                        o_st = st;
                        o_asg = [ (n, x) ];
                        o_cols = [ (col, w) ];
                      }
                  else None)
                st.Stree.col_map)
            strees
      | (Encode.PCls _ | Encode.PRel _ | Encode.PRole _ | Encode.PAttr _), _
        ->
          invalid_arg (Printf.sprintf "rewrite: bad arity for %s" a.pred))

(* Try to extend an existing instance with an option (same s-tree only). *)
let extend isa_reps inst (o : opt) =
  if not (String.equal inst.i_st.Stree.st_table o.o_st.Stree.st_table) then None
  else
    let rep = List.assoc inst.i_st.Stree.st_table isa_reps in
    let ok_asg =
      List.for_all
        (fun (n, x) ->
          (* n may already be assigned: must agree. And no *different*
             object of this instance may carry x. *)
          let existing_n =
            List.find_opt (fun (n', _) -> Stree.equal_ref n n') inst.i_asg
          in
          (match existing_n with
          | Some (_, x') -> String.equal x x'
          | None -> true)
          && List.for_all
               (fun (m, x') ->
                 (not (String.equal x x'))
                 || String.equal (rep m) (rep n))
               inst.i_asg)
        o.o_asg
    in
    let ok_cols =
      List.for_all
        (fun (c, t) ->
          match List.assoc_opt c inst.i_cols with
          | None -> true
          | Some t' -> Atom.equal_term t t')
        o.o_cols
    in
    if ok_asg && ok_cols then
      let i_asg =
        List.fold_left
          (fun acc (n, x) ->
            if List.exists (fun (n', _) -> Stree.equal_ref n n') acc then acc
            else (n, x) :: acc)
          inst.i_asg o.o_asg
      in
      let i_cols =
        List.fold_left
          (fun acc (c, t) ->
            if List.mem_assoc c acc then acc else (c, t) :: acc)
          inst.i_cols o.o_cols
      in
      Some { inst with i_asg; i_cols }
    else None

let fresh_inst (o : opt) = { i_st = o.o_st; i_asg = o.o_asg; i_cols = o.o_cols }

(* id columns of a node, searching its isa-equivalence class. *)
let id_cols_of isa_reps (st : Stree.t) n =
  match Stree.id_columns st n with
  | Some cols -> Some cols
  | None ->
      let rep = List.assoc st.Stree.st_table isa_reps in
      let target = rep n in
      List.find_map
        (fun (m, cols) ->
          if String.equal (rep m) target then Some cols else None)
        st.Stree.id_map

(* ---- finalisation ----------------------------------------------------- *)

let finalize ~schema ~isa_reps ~head insts =
  let answer_vars =
    List.concat_map (function Atom.Var x -> [ x ] | Atom.Cst _ -> []) head
  in
  let tuf = Tuf.create ~preferred_vars:answer_vars in
  (* Which instances mention each variable? *)
  let var_insts = Hashtbl.create 16 in
  List.iteri
    (fun i inst ->
      List.iter
        (fun (_, x) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt var_insts x) in
          if not (List.mem i cur) then Hashtbl.replace var_insts x (i :: cur))
        inst.i_asg)
    insts;
  let shared x =
    match Hashtbl.find_opt var_insts x with
    | Some (_ :: _ :: _) -> true
    | _ -> false
  in
  (* Propagate identifier bindings; abort on failure. *)
  let exception Reject in
  try
    let insts =
      List.map
        (fun inst ->
          let cols = ref inst.i_cols in
          List.iter
            (fun (n, x) ->
              match id_cols_of isa_reps inst.i_st n with
              | None -> if shared x then raise Reject
              | Some idc ->
                  List.iteri
                    (fun k c ->
                      let canon = Printf.sprintf "id:%s:%d" x k in
                      match List.assoc_opt c !cols with
                      | Some (Atom.Var y) ->
                          if not (Tuf.union tuf canon y) then raise Reject
                      | Some (Atom.Cst cst) ->
                          if not (Tuf.unify_const tuf canon (Atom.Cst cst))
                          then
                            raise Reject
                      | None -> cols := (c, Atom.Var canon) :: !cols)
                    idc)
            inst.i_asg;
          { inst with i_cols = !cols })
        insts
    in
    (* Build table atoms with full column lists. *)
    let fresh = ref 0 in
    let atoms =
      List.map
        (fun inst ->
          let table = inst.i_st.Stree.st_table in
          let tbl = Schema.find_table_exn schema table in
          let args =
            List.map
              (fun c ->
                match List.assoc_opt c inst.i_cols with
                | Some t -> Tuf.resolve tuf t
                | None ->
                    incr fresh;
                    Atom.Var (Printf.sprintf "f%d" !fresh))
              (Schema.column_names tbl)
          in
          Atom.atom table args)
        insts
    in
    let head = List.map (Tuf.resolve tuf) head in
    Some (Query.make ~name:"rw" ~head atoms)
  with Reject -> None


(* ---- key-based atom merging ------------------------------------------- *)

(* Two atoms over the same table whose key-position arguments coincide
   denote the same tuple (the table's key functionally determines the
   rest), so their remaining arguments can be unified. This is the
   query-level face of "merging Skolem functions through keys" (§3.4).
   Unification prefers head variables; a constant/constant clash keeps
   the atoms apart (the rewriting is then unsatisfiable anyway under the
   key, but we stay conservative). *)
let merge_by_keys ~schema (q : Query.t) =
  let head_vars = Query.head_vars q in
  let subst_term m = function
    | Atom.Var x as t -> (
        match List.assoc_opt x m with Some t' -> t' | None -> t)
    | Atom.Cst _ as t -> t
  in
  let subst_atom m (a : Atom.t) =
    { a with Atom.args = List.map (subst_term m) a.Atom.args }
  in
  let rec fixpoint (atoms, head) =
    let try_merge () =
      let rec pick = function
        | [] -> None
        | (a : Atom.t) :: rest -> (
            let t = Schema.find_table_exn schema a.Atom.pred in
            let key = t.Schema.key in
            let cols = Schema.column_names t in
            let key_args (x : Atom.t) =
              List.filteri (fun i _ -> List.mem (List.nth cols i) key) x.Atom.args
            in
            if key = [] then pick rest
            else
              match
                List.find_opt
                  (fun (b : Atom.t) ->
                    String.equal a.Atom.pred b.Atom.pred
                    && List.for_all2 Atom.equal_term (key_args a) (key_args b))
                  rest
              with
              | Some b -> (
                  (* unify non-key args pairwise *)
                  let rec unify m args1 args2 =
                    match (args1, args2) with
                    | [], [] -> Some m
                    | t1 :: r1, t2 :: r2 -> (
                        let t1 = subst_term m t1 and t2 = subst_term m t2 in
                        if Atom.equal_term t1 t2 then unify m r1 r2
                        else
                          match (t1, t2) with
                          | Atom.Var x, Atom.Var y ->
                              (* keep head variables as representatives *)
                              if List.mem x head_vars then
                                unify ((y, Atom.Var x) :: m) r1 r2
                              else unify ((x, Atom.Var y) :: m) r1 r2
                          | Atom.Var x, (Atom.Cst _ as c)
                          | (Atom.Cst _ as c), Atom.Var x ->
                              unify ((x, c) :: m) r1 r2
                          | Atom.Cst _, Atom.Cst _ -> None)
                    | _, _ -> None
                  in
                  match unify [] a.Atom.args b.Atom.args with
                  | Some m -> Some (a, b, m)
                  | None -> pick rest)
              | None -> pick rest)
      in
      pick atoms
    in
    match try_merge () with
    | None -> (atoms, head)
    | Some (_, b, m) ->
        let atoms =
          List.filter (fun x -> not (x == b)) atoms
          |> List.map (subst_atom m)
        in
        (* two *head* variables can be unified (two correspondences fed
           by the same column); the head must follow the substitution or
           it ends up unsafe *)
        fixpoint (atoms, List.map (subst_term m) head)
  in
  let body, head = fixpoint (q.Query.body, q.Query.head) in
  { q with Query.body = body; head }

(* ---- main ------------------------------------------------------------- *)

let rewrite ~cmg ~schema ~strees ?(max_covers = 800) ?(required_tables = []) q =
  let cm = Cm_graph.cm cmg in
  let isa_reps =
    List.map (fun (st : Stree.t) -> (st.Stree.st_table, isa_rep_fn st)) strees
  in
  (* Classes asserted on each query variable: an option may only assign
     a variable to an s-tree node whose class is *comparable* (equal, or
     related by ISA) to every asserted class. Binding a Gateway-typed
     variable to a sibling Bridge node would silently intersect two
     subclasses — not a mapping the method should propose. *)
  let var_classes =
    List.filter_map
      (fun (a : Atom.t) ->
        match (Encode.parse_pred a.Atom.pred, a.Atom.args) with
        | Some (Encode.PCls c), [ Atom.Var x ] -> Some (x, c)
        | _, _ -> None)
      q.Query.body
  in
  let comparable a b =
    String.equal a b
    || List.mem b (Cml.ancestors cm a)
    || List.mem a (Cml.ancestors cm b)
  in
  let option_well_typed (o : opt) =
    List.for_all
      (fun ((node : Stree.node_ref), x) ->
        let asserted =
          List.filter_map
            (fun (x', c) -> if String.equal x x' then Some c else None)
            var_classes
        in
        (* Either the node's class is itself asserted on the variable
           (a deliberate merge, as in ISA-merged CSGs), or it must be
           ISA-comparable with everything asserted. *)
        List.mem node.nr_class asserted
        || List.for_all (comparable node.nr_class) asserted)
      o.o_asg
  in
  (* Cover connection atoms first, then attributes, then classes: the
     more constrained atoms prune the search sooner. *)
  let weight (a : Atom.t) =
    match Encode.parse_pred a.Atom.pred with
    | Some (Encode.PRel _ | Encode.PRole _) -> 0
    | Some (Encode.PAttr _) -> 1
    | Some (Encode.PCls _) -> 2
    | None -> 3
  in
  let atoms = List.stable_sort (fun a b -> compare (weight a) (weight b)) q.Query.body in
  let results = ref [] in
  let count = ref 0 in
  let rec cover insts = function
    | [] ->
        if !count < max_covers then begin
          incr count;
          match finalize ~schema ~isa_reps ~head:q.Query.head (List.rev insts) with
          | Some rw -> results := rw :: !results
          | None -> ()
        end
    | a :: rest ->
        if !count >= max_covers then ()
        else begin
          let opts = List.filter option_well_typed (options_for cm strees a) in
          (* If some instance already covers this atom (a no-op
             extension), the atom adds nothing: continue once and skip
             the alternative branches. This prunes the exponential
             duplication caused by class atoms whose object is already
             pinned by a relationship atom. *)
          let noop =
            List.exists
              (fun o ->
                List.exists
                  (fun inst ->
                    match extend isa_reps inst o with
                    | Some inst' ->
                        List.length inst'.i_asg = List.length inst.i_asg
                        && List.length inst'.i_cols = List.length inst.i_cols
                    | None -> false)
                  insts)
              opts
          in
          if noop then cover insts rest
          else
            List.iter
              (fun o ->
                (* extend each compatible existing instance *)
                List.iteri
                  (fun i inst ->
                    match extend isa_reps inst o with
                    | Some inst' ->
                        let insts' =
                          List.mapi (fun j x -> if i = j then inst' else x) insts
                        in
                        cover insts' rest
                    | None -> ())
                  insts;
                (* or open a new instance *)
                cover (fresh_inst o :: insts) rest)
              opts
        end
  in
  cover [] atoms;
  (* The paper's elimination order: first drop rewritings that do not
     mention every correspondence-linked table (q'_1 of Example 3.4),
     then minimize and keep only maximal survivors (q'_2 vs q'_3). *)
  let mentions_required (q : Query.t) =
    List.for_all
      (fun t ->
        List.exists (fun (a : Atom.t) -> String.equal a.Atom.pred t) q.Query.body)
      required_tables
  in
  let results = List.filter mentions_required !results in
  let results = List.map (merge_by_keys ~schema) results in
  let minimized = List.map Query.minimize results in
  (* fast syntactic dedupe first, then the semantic one *)
  let syntactic = Hashtbl.create 64 in
  let minimized =
    List.filter
      (fun (q : Query.t) ->
        let key =
          String.concat "|"
            (List.sort compare
               (List.map (fun a -> Fmt.str "%a" Atom.pp a) q.Query.body))
        in
        if Hashtbl.mem syntactic key then false
        else begin
          Hashtbl.replace syntactic key ();
          true
        end)
      minimized
  in
  let deduped =
    List.fold_left
      (fun acc q ->
        if List.exists (fun q' -> Query.equivalent q q') acc then acc
        else q :: acc)
      [] minimized
  in
  let maximal =
    List.filter
      (fun q ->
        not
          (List.exists
             (fun q' ->
               (not (q == q'))
               && Query.contained_in q q'
               && not (Query.contained_in q' q))
             deduped))
      deduped
  in
  List.map
    (fun (q : Query.t) ->
      let tables =
        List.sort_uniq compare (List.map (fun a -> a.Atom.pred) q.Query.body)
      in
      { rw_query = q; rw_tables = tables })
    maximal
