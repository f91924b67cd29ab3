module Cml = Smg_cm.Cml
module Cm_graph = Smg_cm.Cm_graph
module Schema = Smg_relational.Schema
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query

type result = { rw_query : Query.t; rw_tables : string list }

(* ---- the variables of one query, numbered --------------------------- *)

(* The variables a rewriting of one query can mention — the query's own,
   plus one per identifying column of an assigned node — numbered as
   they are first seen, so that a cover's union-find runs on arrays. *)
module Vars = struct
  type t = {
    ids : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable terms : Atom.term array;
    mutable count : int;
  }

  let create () =
    {
      ids = Hashtbl.create 32;
      names = Array.make 32 "";
      terms = Array.make 32 (Atom.Var "");
      count = 0;
    }

  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let id t x =
    match Hashtbl.find_opt t.ids x with
    | Some i -> i
    | None ->
        let i = t.count in
        if i = Array.length t.names then begin
          t.names <- grow t.names "";
          t.terms <- grow t.terms (Atom.Var "")
        end;
        t.names.(i) <- x;
        t.terms.(i) <- Atom.Var x;
        Hashtbl.add t.ids x i;
        t.count <- i + 1;
        i
end

(* A term bound to a column: a numbered variable or a constant. *)
type bound = Bvar of int | Bcst of Atom.term

let equal_bound a b =
  match (a, b) with
  | Bvar x, Bvar y -> x = y
  | Bcst c, Bcst d -> Atom.equal_term c d
  | Bvar _, Bcst _ | Bcst _, Bvar _ -> false

(* ---- variable-level union-find with constant anchors ----------------- *)

module Tuf = struct
  type t = {
    parent : int array;
    anchor : Atom.term option array;  (* rep -> constant *)
    preferred : int;  (* variables numbered below are answer variables *)
  }

  let create (vars : Vars.t) ~preferred =
    {
      parent = Array.init vars.Vars.count Fun.id;
      anchor = Array.make vars.Vars.count None;
      preferred;
    }

  let rec find t x =
    let p = t.parent.(x) in
    if p = x then x
    else
      let r = find t p in
      t.parent.(x) <- r;
      r

  (* Returns false on constant conflict. *)
  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then true
    else begin
      (* Keep a preferred (answer) variable as representative. *)
      let keep, drop = if ra < t.preferred then (ra, rb) else (rb, ra) in
      match (t.anchor.(keep), t.anchor.(drop)) with
      | Some c1, Some c2 when not (Atom.equal_term c1 c2) -> false
      | _, c2 ->
          t.parent.(drop) <- keep;
          (match (t.anchor.(keep), c2) with
          | None, Some c -> t.anchor.(keep) <- Some c
          | _, _ -> ());
          t.anchor.(drop) <- None;
          true
    end

  let unify_const t x c =
    let r = find t x in
    match t.anchor.(r) with
    | Some c' -> Atom.equal_term c c'
    | None ->
        t.anchor.(r) <- Some c;
        true

  let resolve t (vars : Vars.t) = function
    | Bcst c -> c
    | Bvar x -> (
        let r = find t x in
        match t.anchor.(r) with Some c -> c | None -> vars.Vars.terms.(r))
end

(* ---- view-instance state --------------------------------------------- *)

(* One s-tree node assigned to a query variable, with what the search and
   [finalize] ask of it worked out once, when its option is built:
   [a_rep] numbers the node's ISA-equivalence class within its table
   (identity flows through SIsa edges), and [a_ids] pairs each column
   identifying the node with the variable that column is bound to. *)
type asg = {
  a_node : Stree.node_ref;
  a_var : int;
  a_rep : int;
  a_ids : (string * int) list option;
}

type inst = {
  i_st : Stree.t;
  i_tid : int;  (* the table, numbered by its first s-tree *)
  i_asg : asg list;  (* s-tree node -> query variable *)
  i_cols : (string * bound) list;  (* column -> bound term *)
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
  o_tid : int;
  o_asg : asg list;
  o_cols : (string * bound) list;
}

(* What building options needs from the query being rewritten: the
   number of an s-tree's table, the assignment of node [n] of an s-tree
   to variable [x], and the binding of a term. *)
type env = {
  tid : Stree.t -> int;
  assign : Stree.t -> Stree.node_ref -> int -> asg;
  bind : Atom.term -> bound;
}

let as_var env t =
  match env.bind t with
  | Bvar x -> x
  | Bcst _ -> invalid_arg "rewrite: constant in object position"

let subsumes cm ~have ~want =
  (* Objects of class [have] are also objects of class [want]? *)
  String.equal have want || List.mem want (Cml.ancestors cm have)

let options_for env cm strees (a : Atom.t) : opt list =
  let opt st asg cols =
    { o_st = st; o_tid = env.tid st; o_asg = asg; o_cols = cols }
  in
  match Encode.parse_pred a.Atom.pred with
  | None -> invalid_arg (Printf.sprintf "rewrite: non-CM predicate %s" a.pred)
  | Some kind -> (
      match (kind, a.Atom.args) with
      | Encode.PCls c, [ x ] ->
          let x = as_var env x in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (n : Stree.node_ref) ->
                  if subsumes cm ~have:n.nr_class ~want:c then
                    Some (opt st [ env.assign st n x ] [])
                  else None)
                st.st_nodes)
            strees
      | Encode.PRel r, [ x; y ] ->
          let x = as_var env x and y = as_var env y in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (e : Stree.sedge) ->
                  match e.se_kind with
                  | Stree.SRel r' when String.equal r r' ->
                      Some
                        (opt st
                           [ env.assign st e.se_src x; env.assign st e.se_dst y ]
                           [])
                  | Stree.SRel _ | Stree.SRole _ | Stree.SIsa -> None)
                st.st_edges)
            strees
      | Encode.PRole (rr, ro), [ x; y ] ->
          let x = as_var env x and y = as_var env y in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (e : Stree.sedge) ->
                  match e.se_kind with
                  | Stree.SRole ro'
                    when String.equal ro ro'
                         && String.equal e.se_src.nr_class rr ->
                      Some
                        (opt st
                           [ env.assign st e.se_src x; env.assign st e.se_dst y ]
                           [])
                  | Stree.SRole _ | Stree.SRel _ | Stree.SIsa -> None)
                st.st_edges)
            strees
      | Encode.PAttr (owner, attr), [ x; w ] ->
          let x = as_var env x in
          List.concat_map
            (fun (st : Stree.t) ->
              List.filter_map
                (fun (col, n, a) ->
                  if
                    String.equal a attr
                    && Stree.declaring_class cm n.Stree.nr_class a
                       = Some owner
                  then Some (opt st [ env.assign st n x ] [ (col, env.bind w) ])
                  else None)
                st.Stree.col_map)
            strees
      | (Encode.PCls _ | Encode.PRel _ | Encode.PRole _ | Encode.PAttr _), _
        ->
          invalid_arg (Printf.sprintf "rewrite: bad arity for %s" a.pred))

(* Try to extend an existing instance with an option (same table only).
   An extension that adds nothing returns [inst] itself. The option's
   identifier columns were worked out in its own s-tree; when another
   s-tree of the same table opened the instance, they are worked out
   again in the instance's. *)
let extend env inst (o : opt) =
  if inst.i_tid <> o.o_tid then None
  else
    let o_asg =
      if o.o_st == inst.i_st then o.o_asg
      else List.map (fun a -> env.assign inst.i_st a.a_node a.a_var) o.o_asg
    in
    let ok_asg =
      List.for_all
        (fun a ->
          (* the node may already be assigned: must agree. And no
             *different* object of this instance may carry the variable. *)
          let existing_n =
            List.find_opt (fun b -> Stree.equal_ref a.a_node b.a_node) inst.i_asg
          in
          (match existing_n with Some b -> a.a_var = b.a_var | None -> true)
          && List.for_all
               (fun b -> a.a_var <> b.a_var || a.a_rep = b.a_rep)
               inst.i_asg)
        o_asg
    in
    let ok_cols =
      List.for_all
        (fun (c, t) ->
          match List.assoc_opt c inst.i_cols with
          | None -> true
          | Some t' -> equal_bound t t')
        o.o_cols
    in
    if ok_asg && ok_cols then
      let i_asg =
        List.fold_left
          (fun acc a ->
            if List.exists (fun b -> Stree.equal_ref a.a_node b.a_node) acc then acc
            else a :: acc)
          inst.i_asg o_asg
      in
      let i_cols =
        List.fold_left
          (fun acc (c, t) ->
            if List.mem_assoc c acc then acc else (c, t) :: acc)
          inst.i_cols o.o_cols
      in
      if i_asg == inst.i_asg && i_cols == inst.i_cols then Some inst
      else Some { inst with i_asg; i_cols }
    else None

let fresh_inst (o : opt) =
  { i_st = o.o_st; i_tid = o.o_tid; i_asg = o.o_asg; i_cols = o.o_cols }

(* ---- finalisation ----------------------------------------------------- *)

(* [columns tid] lists the columns of table [tid]; variables numbered
   below [preferred] are the head's. *)
let finalize ~vars ~preferred ~columns ~head insts =
  let tuf = Tuf.create vars ~preferred in
  (* The instance mentioning each variable, or -2 once several do. *)
  let seen = Array.make vars.Vars.count (-1) in
  List.iteri
    (fun i inst ->
      List.iter
        (fun a ->
          let s = seen.(a.a_var) in
          if s = -1 then seen.(a.a_var) <- i
          else if s <> i then seen.(a.a_var) <- -2)
        inst.i_asg)
    insts;
  (* Propagate identifier bindings; abort on failure. *)
  let exception Reject in
  try
    let insts =
      List.map
        (fun inst ->
          let cols = ref inst.i_cols in
          List.iter
            (fun a ->
              match a.a_ids with
              | None -> if seen.(a.a_var) = -2 then raise Reject
              | Some ids ->
                  List.iter
                    (fun (c, canon) ->
                      match List.assoc_opt c !cols with
                      | Some (Bvar y) ->
                          if not (Tuf.union tuf canon y) then raise Reject
                      | Some (Bcst cst) ->
                          if not (Tuf.unify_const tuf canon cst) then
                            raise Reject
                      | None -> cols := (c, Bvar canon) :: !cols)
                    ids)
            inst.i_asg;
          { inst with i_cols = !cols })
        insts
    in
    (* Build table atoms with full column lists. *)
    let fresh = ref 0 in
    let atoms =
      List.map
        (fun inst ->
          let args =
            List.map
              (fun c ->
                match List.assoc_opt c inst.i_cols with
                | Some t -> Tuf.resolve tuf vars t
                | None ->
                    incr fresh;
                    Atom.Var ("f" ^ string_of_int !fresh))
              (columns inst.i_tid)
          in
          Atom.atom inst.i_st.Stree.st_table args)
        insts
    in
    let head = List.map (Tuf.resolve tuf vars) head in
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

type covers = Query.t list

let covers ~cmg ~schema ~strees ?(max_covers = 800) q =
  let cm = Cm_graph.cm cmg in
  (* The head's variables are numbered first: they are the answer
     variables a cover's union-find keeps as representatives. *)
  let vars = Vars.create () in
  let bind = function
    | Atom.Var x -> Bvar (Vars.id vars x)
    | Atom.Cst _ as c -> Bcst c
  in
  let head = List.map bind q.Query.head in
  let preferred = vars.Vars.count in
  (* Tables are numbered by their first s-tree, whose ISA classes then
     stand for every s-tree of that table; [columns] reads a table's
     columns once, when a cover first mentions it. *)
  let tables = Hashtbl.create 16 in
  let first = Array.of_list strees in
  Array.iteri
    (fun i (st : Stree.t) ->
      if not (Hashtbl.mem tables st.Stree.st_table) then
        Hashtbl.add tables st.Stree.st_table (i, isa_rep_fn st))
    first;
  let tid (st : Stree.t) = fst (Hashtbl.find tables st.Stree.st_table) in
  let column_lists =
    Array.map
      (fun (st : Stree.t) ->
        lazy
          (Schema.column_names (Schema.find_table_exn schema st.Stree.st_table)))
      first
  in
  let columns i = Lazy.force column_lists.(i) in
  let rep_ids = Hashtbl.create 16 in
  let rep_id (st : Stree.t) n =
    let r = snd (Hashtbl.find tables st.Stree.st_table) n in
    match Hashtbl.find_opt rep_ids r with
    | Some i -> i
    | None ->
        let i = Hashtbl.length rep_ids in
        Hashtbl.add rep_ids r i;
        i
  in
  let assign (st : Stree.t) n x =
    let rep = rep_id st n in
    (* id columns of a node, searching its isa-equivalence class *)
    let ids =
      match Stree.id_columns st n with
      | Some cols -> Some cols
      | None ->
          List.find_map
            (fun (m, cols) -> if rep_id st m = rep then Some cols else None)
            st.Stree.id_map
    in
    let canon k =
      Vars.id vars ("id:" ^ vars.Vars.names.(x) ^ ":" ^ string_of_int k)
    in
    {
      a_node = n;
      a_var = x;
      a_rep = rep;
      a_ids = Option.map (List.mapi (fun k c -> (c, canon k))) ids;
    }
  in
  let env = { tid; assign; bind } in
  (* Classes asserted on each query variable: an option may only assign
     a variable to an s-tree node whose class is *comparable* (equal, or
     related by ISA) to every asserted class. Binding a Gateway-typed
     variable to a sibling Bridge node would silently intersect two
     subclasses — not a mapping the method should propose. *)
  let var_classes =
    List.filter_map
      (fun (a : Atom.t) ->
        match (Encode.parse_pred a.Atom.pred, a.Atom.args) with
        | Some (Encode.PCls c), [ Atom.Var x ] -> Some (Vars.id vars x, c)
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
      (fun a ->
        let asserted =
          List.filter_map
            (fun (x', c) -> if a.a_var = x' then Some c else None)
            var_classes
        in
        (* Either the node's class is itself asserted on the variable
           (a deliberate merge, as in ISA-merged CSGs), or it must be
           ISA-comparable with everything asserted. *)
        List.mem a.a_node.nr_class asserted
        || List.for_all (comparable a.a_node.nr_class) asserted)
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
  (* Each atom's well-typed options, built once, when the search first
     reaches the atom. *)
  let steps =
    List.map
      (fun a -> lazy (List.filter option_well_typed (options_for env cm strees a)))
      atoms
  in
  let results = ref [] in
  let count = ref 0 in
  let rec cover insts = function
    | [] ->
        if !count < max_covers then begin
          incr count;
          match finalize ~vars ~preferred ~columns ~head (List.rev insts) with
          | Some rw -> results := rw :: !results
          | None -> ()
        end
    | opts :: rest ->
        if !count >= max_covers then ()
        else begin
          (* Each option's extensions of the existing instances. If one
             is a no-op (an instance already covers this atom), the atom
             adds nothing: continue once and skip the alternative
             branches. This prunes the exponential duplication caused by
             class atoms whose object is already pinned by a relationship
             atom. Otherwise the branches below reuse the extensions. *)
          let rec branches acc = function
            | [] -> Some (List.rev acc)
            | o :: os ->
                let exts = List.map (fun inst -> extend env inst o) insts in
                if
                  List.exists2
                    (fun inst ext ->
                      match ext with Some inst' -> inst' == inst | None -> false)
                    insts exts
                then None
                else branches ((o, exts) :: acc) os
          in
          match branches [] (Lazy.force opts) with
          | None -> cover insts rest
          | Some bs ->
              List.iter
                (fun (o, exts) ->
                  (* extend each compatible existing instance *)
                  List.iteri
                    (fun i ext ->
                      match ext with
                      | Some inst' ->
                          cover
                            (List.mapi (fun j x -> if i = j then inst' else x) insts)
                            rest
                      | None -> ())
                    exts;
                  (* or open a new instance *)
                  cover (fresh_inst o :: insts) rest)
                bs
        end
  in
  cover [] steps;
  !results

let select ~schema ?(required_tables = []) results =
  (* The paper's elimination order: first drop rewritings that do not
     mention every correspondence-linked table (q'_1 of Example 3.4),
     then minimize and keep only maximal survivors (q'_2 vs q'_3). *)
  let mentions_required (q : Query.t) =
    List.for_all
      (fun t ->
        List.exists (fun (a : Atom.t) -> String.equal a.Atom.pred t) q.Query.body)
      required_tables
  in
  let results = List.filter mentions_required results in
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
  (* A homomorphism from q' to q maps every table of q' to one of q's,
     so q ⊆ q' needs q' to mention no table q does not: the sorted
     table lists rule most pairs out before any search. *)
  let tabled =
    List.map
      (fun (q : Query.t) ->
        (q, List.sort_uniq compare (List.map (fun a -> a.Atom.pred) q.Query.body)))
      minimized
  in
  let rec subset xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
        let c = compare x y in
        if c = 0 then subset xs' ys' else if c > 0 then subset xs ys' else false
  in
  let deduped =
    List.fold_left
      (fun acc (q, t) ->
        if List.exists (fun (q', t') -> t = t' && Query.equivalent q q') acc
        then acc
        else (q, t) :: acc)
      [] tabled
  in
  let maximal =
    List.filter
      (fun (q, t) ->
        not
          (List.exists
             (fun (q', t') ->
               (not (q == q'))
               && subset t' t
               && Query.contained_in q q'
               && not (Query.contained_in q' q))
             deduped))
      deduped
  in
  List.map (fun (q, tables) -> { rw_query = q; rw_tables = tables }) maximal

let rewrite ~cmg ~schema ~strees ?max_covers ?required_tables q =
  select ~schema ?required_tables (covers ~cmg ~schema ~strees ?max_covers q)
