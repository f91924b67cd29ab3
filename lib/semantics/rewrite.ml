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

(* A term as a code: a numbered variable (>= 0) or a numbered constant
   (< 0). A cover is built, merged and compared on codes; only the
   queries that survive to minimization are spelled out as terms. *)
type code = int

(* no term (yet) *)
let unset = min_int

(* ---- variable-level union-find with constant anchors ----------------- *)

module Tuf = struct
  (* One union-find serves every cover of a search: an entry stamped
     with an earlier epoch reads as a singleton class without a constant,
     so starting a cover costs nothing per variable. [seen] is
     [finalize]'s per-variable scratch, reset alike. *)
  type t = {
    mutable parent : int array;
    mutable anchor : code array;  (* rep -> constant, or [unset] *)
    mutable seen : int array;
    mutable stamp : int array;
    mutable epoch : int;
    preferred : int;  (* variables numbered below are answer variables *)
  }

  let create ~preferred =
    { parent = [||]; anchor = [||]; seen = [||]; stamp = [||]; epoch = 0; preferred }

  (* Start a cover over [n] variables. *)
  let reset t n =
    if Array.length t.stamp < n then begin
      let m = max n (2 * Array.length t.stamp) in
      t.parent <- Array.make m 0;
      t.anchor <- Array.make m unset;
      t.seen <- Array.make m (-1);
      t.stamp <- Array.make m 0
    end;
    t.epoch <- t.epoch + 1

  let touch t x =
    if t.stamp.(x) <> t.epoch then begin
      t.stamp.(x) <- t.epoch;
      t.parent.(x) <- x;
      t.anchor.(x) <- unset;
      t.seen.(x) <- -1
    end

  let anchor t r = if t.stamp.(r) = t.epoch then t.anchor.(r) else unset

  let rec find t x =
    if t.stamp.(x) <> t.epoch then x
    else
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
      let c1 = anchor t keep and c2 = anchor t drop in
      if c1 <> unset && c2 <> unset && c1 <> c2 then false
      else begin
        touch t keep;
        touch t drop;
        t.parent.(drop) <- keep;
        if c1 = unset && c2 <> unset then t.anchor.(keep) <- c2;
        t.anchor.(drop) <- unset;
        true
      end
    end

  let unify_const t x c =
    let r = find t x in
    let c' = anchor t r in
    if c' = unset then begin
      touch t r;
      t.anchor.(r) <- c;
      true
    end
    else c = c'

  (* the code a bound term stands for once the cover's unions are done *)
  let resolve t b =
    if b < 0 then b
    else
      let r = find t b in
      let c = anchor t r in
      if c = unset then r else c
end

(* ---- view-instance state --------------------------------------------- *)

(* One s-tree node assigned to a query variable, with what the search and
   [finalize] ask of it worked out once, when its option is built:
   [a_rep] numbers the node's ISA-equivalence class within its table
   (identity flows through SIsa edges), and [a_ids] pairs each column
   identifying the node with the variable that column is bound to.
   Columns are numbered per table, as a cover first mentions them. *)
type asg = {
  a_node : Stree.node_ref;
  a_var : int;
  a_rep : int;
  a_ids : (int * int) list option;
}

type inst = {
  i_st : Stree.t;
  i_tid : int;  (* the table, numbered by its first s-tree *)
  i_asg : asg list;  (* s-tree node -> query variable *)
  i_cols : (int * code) list;  (* column -> bound term *)
}

let rec col_find (c : int) = function
  | [] -> None
  | (c', t) :: rest -> if c = c' then Some t else col_find c rest

let rec col_mem (c : int) = function
  | [] -> false
  | (c', _) :: rest -> c = c' || col_mem c rest

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
  o_cols : (int * code) list;
}

(* What building options needs from the query being rewritten: the
   number of an s-tree's table, the number of a column of an s-tree's
   table, the assignment of node [n] of an s-tree to variable [x], and
   the binding of a term. *)
type env = {
  tid : Stree.t -> int;
  col : Stree.t -> string -> int;
  assign : Stree.t -> Stree.node_ref -> int -> asg;
  bind : Atom.term -> code;
}

let as_var env t =
  let x = env.bind t in
  if x < 0 then invalid_arg "rewrite: constant in object position" else x

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
                  then
                    Some
                      (opt st [ env.assign st n x ] [ (env.col st col, env.bind w) ])
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
          match col_find c inst.i_cols with
          | None -> true
          | Some t' -> t = t')
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
            if col_mem c acc then acc else (c, t) :: acc)
          inst.i_cols o.o_cols
      in
      if i_asg == inst.i_asg && i_cols == inst.i_cols then Some inst
      else Some { inst with i_asg; i_cols }
    else None

let fresh_inst (o : opt) =
  { i_st = o.o_st; i_tid = o.o_tid; i_asg = o.o_asg; i_cols = o.o_cols }

(* ---- finalisation ----------------------------------------------------- *)

(* A raw rewriting on codes: atom [i] is over table [k_tids.(i)], with
   one argument per column of the table, in schema order. *)
type coded = { k_tids : int array; k_args : code array array; k_head : code array }

exception Reject

let rec mark_seen tuf i = function
  | [] -> ()
  | a :: rest ->
      let seen = tuf.Tuf.seen in
      Tuf.touch tuf a.a_var;
      let s = seen.(a.a_var) in
      if s = -1 then seen.(a.a_var) <- i else if s <> i then seen.(a.a_var) <- -2;
      mark_seen tuf i rest

let rec fill row = function
  | [] -> ()
  | (c, t) :: rest ->
      row.(c) <- t;
      fill row rest

(* bind each identifying column to its canonical variable *)
let rec identify tuf row = function
  | [] -> ()
  | (c, canon) :: rest ->
      let t = row.(c) in
      if t = unset then row.(c) <- canon
      else if t >= 0 then begin
        if not (Tuf.union tuf canon t) then raise Reject
      end
      else if not (Tuf.unify_const tuf canon t) then raise Reject;
      identify tuf row rest

let rec propagate tuf row = function
  | [] -> ()
  | a :: rest ->
      (match a.a_ids with
      | None -> if tuf.Tuf.seen.(a.a_var) = -2 then raise Reject
      | Some ids -> identify tuf row ids);
      propagate tuf row rest

(* [insts] are the cover's instances, last opened first; [width tid] is
   how many columns of table [tid] are numbered so far; [slots tid]
   numbers the table's columns, in schema order; [fresh k] is the code
   of the [k]th fresh variable, [f<k>]; [tuf] is the search's
   union-find. *)
let finalize ~tuf ~vars ~width ~slots ~fresh ~head insts =
  let insts = Array.of_list (List.rev insts) in
  let n = Array.length insts in
  Tuf.reset tuf vars.Vars.count;
  (* The instance mentioning each variable, or -2 once several do. *)
  for i = 0 to n - 1 do
    mark_seen tuf i insts.(i).i_asg
  done;
  (* Propagate identifier bindings; abort on failure. *)
  match
    Array.map
      (fun inst ->
        let row = Array.make (width inst.i_tid) unset in
        fill row inst.i_cols;
        propagate tuf row inst.i_asg;
        row)
      insts
  with
  | exception Reject -> None
  | rows ->
      (* Build table atoms with full column lists. *)
      let n_fresh = ref 0 in
      let args =
        Array.init n (fun i ->
            let row = rows.(i) and slots = slots insts.(i).i_tid in
            let args = Array.make (Array.length slots) 0 in
            for k = 0 to Array.length slots - 1 do
              let c = slots.(k) in
              let t = if c < Array.length row then row.(c) else unset in
              args.(k) <-
                (if t = unset then begin
                   incr n_fresh;
                   fresh !n_fresh
                 end
                 else Tuf.resolve tuf t)
            done;
            args)
      in
      Some
        {
          k_tids = Array.map (fun inst -> inst.i_tid) insts;
          k_args = args;
          k_head = Array.map (Tuf.resolve tuf) head;
        }

(* ---- key-based atom merging ------------------------------------------- *)

(* Two atoms over the same table whose key-position arguments coincide
   denote the same tuple (the table's key functionally determines the
   rest), so their remaining arguments can be unified. This is the
   query-level face of "merging Skolem functions through keys" (§3.4).
   Unification prefers head variables; a constant/constant clash keeps
   the atoms apart (the rewriting is then unsatisfiable anyway under the
   key, but we stay conservative).

   Each round merges the first atom, in body order, whose first later
   partner under its key unifies with it: the partner goes, and the
   round's substitution (a variable's latest binding, one level deep)
   applies to every remaining atom and the head. [keys tid] lists table
   [tid]'s key positions; [sub] is a scratch map over variable codes,
   all [unset]. *)
let merge_by_keys ~keys ~sub (c : coded) =
  let n = Array.length c.k_tids in
  let args = ref c.k_args and head = ref c.k_head in
  let alive = Array.make n true in
  let bound = ref [] in
  let bind x t =
    if sub.(x) = unset then bound := x :: !bound;
    sub.(x) <- t
  in
  let reset () =
    List.iter (fun x -> sub.(x) <- unset) !bound;
    bound := []
  in
  let subst x = if x >= 0 && sub.(x) <> unset then sub.(x) else x in
  let same_key i j =
    c.k_tids.(i) = c.k_tids.(j)
    &&
    let a = !args.(i) and b = !args.(j) in
    Array.for_all (fun k -> a.(k) = b.(k)) (keys c.k_tids.(i))
  in
  (* unify the arguments of atoms [i] and [j] pairwise into [sub] *)
  let unify i j =
    let a = !args.(i) and b = !args.(j) in
    let rec go k =
      k = Array.length a
      ||
      let t1 = subst a.(k) and t2 = subst b.(k) in
      if t1 = t2 then go (k + 1)
      else if t1 >= 0 && t2 >= 0 then begin
        (* keep head variables as representatives *)
        if Array.exists (Int.equal t1) c.k_head then bind t2 t1 else bind t1 t2;
        go (k + 1)
      end
      else if t1 >= 0 then (bind t1 t2; go (k + 1))
      else if t2 >= 0 then (bind t2 t1; go (k + 1))
      else false
    in
    Array.length a = Array.length b && go 0
  in
  let rec merge_one i =
    if i >= n then false
    else if (not alive.(i)) || Array.length (keys c.k_tids.(i)) = 0 then
      merge_one (i + 1)
    else
      let rec partner j =
        if j >= n then -1
        else if alive.(j) && same_key i j then j
        else partner (j + 1)
      in
      let j = partner (i + 1) in
      if j >= 0 && unify i j then begin
        alive.(j) <- false;
        if !args == c.k_args then begin
          args := Array.map Array.copy c.k_args;
          head := Array.copy c.k_head
        end;
        Array.iteri
          (fun k live -> if live then Array.map_inplace subst !args.(k))
          alive;
        (* two *head* variables can be unified (two correspondences fed
           by the same column); the head must follow the substitution or
           it ends up unsafe *)
        Array.map_inplace subst !head;
        reset ();
        true
      end
      else begin
        reset ();
        merge_one (i + 1)
      end
  in
  let merged = ref false in
  while merge_one 0 do
    merged := true
  done;
  if not !merged then c
  else
    let live = List.filter (fun i -> alive.(i)) (List.init n Fun.id) in
    {
      k_tids = Array.of_list (List.map (fun i -> c.k_tids.(i)) live);
      k_args = Array.of_list (List.map (fun i -> !args.(i)) live);
      k_head = !head;
    }

(* ---- main ------------------------------------------------------------- *)

(* Coded rewritings under structural equality, hashed on every code. *)
module Ktbl = Hashtbl.Make (struct
  type t = coded

  let codes_equal (a : code array) b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b

  let equal a b =
    codes_equal a.k_tids b.k_tids
    && codes_equal a.k_head b.k_head
    && Array.for_all2 codes_equal a.k_args b.k_args

  let hash_codes h (a : code array) =
    let h = ref h in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h

  let hash c =
    let h = ref (hash_codes (hash_codes 17 c.k_tids) c.k_head) in
    for i = 0 to Array.length c.k_args - 1 do
      h := hash_codes !h c.k_args.(i)
    done;
    (!h lxor (!h lsr 32)) land max_int
end)

(* The raw rewritings, structurally distinct, in the order {!select}
   reads them, with the work every selection shares done at most once
   per cover: key merging, then minimization of each distinct merged
   query. [cv_prep.(i)] is cover [i]'s merged query's number and its
   minimized form, on codes and spelled out. *)
type covers = {
  cv_tables : string array;  (* table name by number *)
  cv_raw : coded array;
  cv_prep : (int * (coded * Query.t) Lazy.t) Lazy.t array;
}

let prepare ~tables ~keys ~vars ~consts raws =
  let distinct = Ktbl.create (List.length raws) in
  let raw =
    List.filter
      (fun c ->
        if Ktbl.mem distinct c then false
        else begin
          Ktbl.add distinct c ();
          true
        end)
      raws
    |> Array.of_list
  in
  let term x = if x >= 0 then vars.Vars.terms.(x) else consts.(-x - 1) in
  let query c =
    let atoms =
      Array.map2
        (fun tid args ->
          Atom.atom tables.(tid) (List.map term (Array.to_list args)))
        c.k_tids c.k_args
    in
    Query.make ~name:"rw"
      ~head:(List.map term (Array.to_list c.k_head))
      (Array.to_list atoms)
  in
  let sub = Array.make vars.Vars.count unset in
  let merged = Ktbl.create 64 in
  (* [Query.minimize] keeps a subsequence of the body's atoms, so the
     minimized query's codes are those of the atoms it kept *)
  let minimize c =
    let q = query c in
    let core = Query.minimize q in
    let rec kept i atoms core =
      match (atoms, core) with
      | _, [] -> []
      | a :: atoms, b :: core' ->
          if a == b then i :: kept (i + 1) atoms core' else kept (i + 1) atoms core
      | [], _ :: _ -> assert false
    in
    let kept = Array.of_list (kept 0 q.Query.body core.Query.body) in
    ( {
        k_tids = Array.map (fun i -> c.k_tids.(i)) kept;
        k_args = Array.map (fun i -> c.k_args.(i)) kept;
        k_head = c.k_head;
      },
      core )
  in
  let prep c =
    lazy
      (let m = merge_by_keys ~keys ~sub c in
       match Ktbl.find_opt merged m with
       | Some p -> p
       | None ->
           let p = (Ktbl.length merged, lazy (minimize m)) in
           Ktbl.add merged m p;
           p)
  in
  { cv_tables = tables; cv_raw = raw; cv_prep = Array.map prep raw }

let covers ~cmg ~schema ~strees ?(max_covers = 800) q =
  let cm = Cm_graph.cm cmg in
  (* The head's variables are numbered first: they are the answer
     variables a cover's union-find keeps as representatives. *)
  let vars = Vars.create () in
  let consts = ref [||] in
  let bind = function
    | Atom.Var x -> Vars.id vars x
    | Atom.Cst _ as c -> (
        match Array.find_index (Atom.equal_term c) !consts with
        | Some i -> -i - 1
        | None ->
            consts := Array.append !consts [| c |];
            -Array.length !consts)
  in
  let head = Array.of_list (List.map bind q.Query.head) in
  let preferred = vars.Vars.count in
  (* fresh variable [f<k>] is a variable like any other: a query
     variable of that name is the same variable *)
  let fresh_codes = ref [||] in
  let fresh k =
    let codes = !fresh_codes in
    if k <= Array.length codes then codes.(k - 1)
    else begin
      let x = Vars.id vars ("f" ^ string_of_int k) in
      fresh_codes := Array.append codes [| x |];
      x
    end
  in
  (* Tables are numbered by their first s-tree, whose ISA classes then
     stand for every s-tree of that table. A table's columns are
     numbered as options first mention them; [slots] reads the table's
     own column list once, when a cover first mentions it. *)
  let tables = Hashtbl.create 16 in
  let first = Array.of_list strees in
  Array.iteri
    (fun i (st : Stree.t) ->
      if not (Hashtbl.mem tables st.Stree.st_table) then
        Hashtbl.add tables st.Stree.st_table (i, isa_rep_fn st))
    first;
  let tid (st : Stree.t) = fst (Hashtbl.find tables st.Stree.st_table) in
  let colnums = Array.map (fun _ -> Hashtbl.create 8) first in
  let colnum i c =
    let h = colnums.(i) in
    match Hashtbl.find_opt h c with
    | Some k -> k
    | None ->
        let k = Hashtbl.length h in
        Hashtbl.add h c k;
        k
  in
  let col st c = colnum (tid st) c in
  let width i = Hashtbl.length colnums.(i) in
  let slot_arrays =
    Array.mapi
      (fun i (st : Stree.t) ->
        lazy
          (Array.of_list
             (List.map (colnum i)
                (Schema.column_names
                   (Schema.find_table_exn schema st.Stree.st_table)))))
      first
  in
  let slots i = Lazy.force slot_arrays.(i) in
  let key_arrays =
    Array.map
      (fun (st : Stree.t) ->
        lazy
          (let t = Schema.find_table_exn schema st.Stree.st_table in
           List.mapi (fun i c -> (i, c)) (Schema.column_names t)
           |> List.filter_map (fun (i, c) ->
                  if List.mem c t.Schema.key then Some i else None)
           |> Array.of_list))
      first
  in
  let keys i = Lazy.force key_arrays.(i) in
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
      a_ids = Option.map (List.mapi (fun k c -> (col st c, canon k))) ids;
    }
  in
  let env = { tid; col; assign; bind } in
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
  let tuf = Tuf.create ~preferred in
  let results = ref [] in
  let count = ref 0 in
  let rec cover insts = function
    | [] ->
        if !count < max_covers then begin
          incr count;
          match
            finalize ~tuf ~vars ~width ~slots ~fresh ~head insts
          with
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
  prepare
    ~tables:(Array.map (fun (st : Stree.t) -> st.Stree.st_table) first)
    ~keys ~vars ~consts:!consts !results

(* The order of [c]'s atoms by table, then by their arguments under
   [f], ties kept in body order. *)
let atom_order f c =
  let args = Array.map (Array.map f) c.k_args in
  let order = Array.init (Array.length c.k_tids) Fun.id in
  let rec lex a b k =
    if k = Array.length a then 0
    else
      let d = Int.compare a.(k) b.(k) in
      if d <> 0 then d else lex a b (k + 1)
  in
  Array.stable_sort
    (fun i j ->
      let d = Int.compare c.k_tids.(i) c.k_tids.(j) in
      if d <> 0 then d else lex args.(i) args.(j) 0)
    order;
  order

(* The syntactic dedupe key: the body's atoms as a sorted multiset. *)
let syntactic_key c =
  let order = atom_order Fun.id c in
  {
    k_tids = Array.map (fun i -> c.k_tids.(i)) order;
    k_args = Array.map (fun i -> c.k_args.(i)) order;
    k_head = [||];
  }

(* A key that ignores the names of existential variables: atoms sorted
   with existentials masked, then existentials numbered by first
   occurrence in that order. A head term [x] stands as [2x], the [k]th
   existential as [2k+1], so equal keys mean equal queries up to
   renaming existentials: isomorphic, hence equivalent. *)
let renaming_key c =
  let fixed x = x < 0 || Array.exists (Int.equal x) c.k_head in
  let order = atom_order (fun x -> if fixed x then 2 * x else -1) c in
  let numbers = Hashtbl.create 16 in
  let term x =
    if fixed x then 2 * x
    else
      match Hashtbl.find_opt numbers x with
      | Some k -> k
      | None ->
          let k = (2 * Hashtbl.length numbers) + 1 in
          Hashtbl.add numbers x k;
          k
  in
  {
    k_tids = Array.map (fun i -> c.k_tids.(i)) order;
    k_args = Array.map (fun i -> Array.map term c.k_args.(i)) order;
    k_head = Array.map (fun x -> 2 * x) c.k_head;
  }

let select ?(required_tables = []) cv =
  (* The paper's elimination order: first drop rewritings that do not
     mention every correspondence-linked table (q'_1 of Example 3.4),
     then minimize and keep only maximal survivors (q'_2 vs q'_3). *)
  let mentions_required c =
    List.for_all
      (fun t ->
        Array.exists (fun tid -> String.equal cv.cv_tables.(tid) t) c.k_tids)
      required_tables
  in
  (* Each distinct merged query is minimized once; a later cover whose
     merged query is equal to an earlier one's adds nothing. *)
  let merged_seen = Hashtbl.create 64 in
  let minimized = ref [] in
  Array.iteri
    (fun i c ->
      if mentions_required c then begin
        let id, min = Lazy.force cv.cv_prep.(i) in
        if not (Hashtbl.mem merged_seen id) then begin
          Hashtbl.add merged_seen id ();
          minimized := Lazy.force min :: !minimized
        end
      end)
    cv.cv_raw;
  (* fast syntactic dedupe first, then the semantic one *)
  let syntactic = Ktbl.create 64 in
  let minimized =
    List.filter
      (fun (c, _) ->
        let key = syntactic_key c in
        if Ktbl.mem syntactic key then false
        else begin
          Ktbl.replace syntactic key ();
          true
        end)
      (List.rev !minimized)
  in
  (* A homomorphism from q' to q maps every table of q' to one of q's,
     so q ⊆ q' needs q' to mention no table q does not: the sorted
     table lists rule most pairs out before any search. *)
  let tabled =
    List.map
      (fun (c, (q : Query.t)) ->
        (c, q, List.sort_uniq compare (List.map (fun a -> a.Atom.pred) q.Query.body)))
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
  (* Keep the first query of each equivalence class. A query whose
     renaming key an earlier query had is equivalent to that one, so to
     a kept representative: it goes without a search. Minimized queries
     are cores, and equivalent cores are isomorphic, so only a kept
     query with the same multiset of tables can be equivalent. *)
  let renamings = Ktbl.create 64 in
  let shapes = Hashtbl.create 64 in
  let deduped =
    List.fold_left
      (fun acc (c, q, t) ->
        let key = renaming_key c in
        if Ktbl.mem renamings key then acc
        else begin
          Ktbl.add renamings key ();
          let shape = key.k_tids in
          let same = Option.value ~default:[] (Hashtbl.find_opt shapes shape) in
          if List.exists (Query.equivalent q) same then acc
          else begin
            Hashtbl.replace shapes shape (q :: same);
            (q, t) :: acc
          end
        end)
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
  select ?required_tables (covers ~cmg ~schema ~strees ?max_covers q)
