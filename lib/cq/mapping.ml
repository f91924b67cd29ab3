module Schema = Smg_relational.Schema
module Algebra = Smg_relational.Algebra

type corr = { c_src : string * string; c_tgt : string * string }

type t = {
  m_name : string;
  src_query : Query.t;
  tgt_query : Query.t;
  covered : corr list;
  outer : bool;
  score : float;
  provenance : string list;
      (* human-readable derivation notes, best first; empty when the
         producing method records none *)
}

let corr ~src ~tgt = { c_src = src; c_tgt = tgt }

let split_tc s =
  match String.index_opt s '.' with
  | None -> invalid_arg (Printf.sprintf "correspondence %S: expected table.column" s)
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let corr_of_strings a b = { c_src = split_tc a; c_tgt = split_tc b }
let compare_corr = Stdlib.compare

let pp_corr ppf c =
  let s_t, s_c = c.c_src and t_t, t_c = c.c_tgt in
  Fmt.pf ppf "%s.%s ↔ %s.%s" s_t s_c t_t t_c

let make ?(name = "mapping") ?(outer = false) ?(score = 0.)
    ?(provenance = []) ~src_query ~tgt_query ~covered () =
  let n = List.length covered in
  if List.length src_query.Query.head <> n then
    invalid_arg "mapping: source head arity mismatch";
  if List.length tgt_query.Query.head <> n then
    invalid_arg "mapping: target head arity mismatch";
  (* Sort correspondences canonically and permute the heads alongside. *)
  let indexed = List.mapi (fun i c -> (c, i)) covered in
  let sorted = List.sort (fun (a, _) (b, _) -> compare_corr a b) indexed in
  let perm = List.map snd sorted in
  let permute l = List.map (fun i -> List.nth l i) perm in
  {
    m_name = name;
    src_query = { src_query with Query.head = permute src_query.Query.head };
    tgt_query = { tgt_query with Query.head = permute tgt_query.Query.head };
    covered = List.map fst sorted;
    outer;
    score;
    provenance;
  }

let rename name m = { m with m_name = name }

(* Degraded candidates (budget-exhausted searches answered by an
   approximation) are flagged by a recognisable provenance prefix, so
   the flag survives serialisation, renaming, and dedup. *)
let approx_prefix = "approximate: "

let mark_approximate why m =
  if
    List.exists
      (fun p -> String.length p >= String.length approx_prefix
                && String.sub p 0 (String.length approx_prefix) = approx_prefix)
      m.provenance
  then m
  else { m with provenance = (approx_prefix ^ why) :: m.provenance }

let is_approximate m =
  List.exists
    (fun p ->
      String.length p >= String.length approx_prefix
      && String.sub p 0 (String.length approx_prefix) = approx_prefix)
    m.provenance

let to_tgd m =
  (* Rename the target query apart, then identify its head variables with
     the source head terms. *)
  let tgt = Query.rename_apart ~suffix:"_t" m.tgt_query in
  let subst =
    List.fold_left2
      (fun acc t_term s_term ->
        match t_term with
        | Atom.Var x -> Atom.Subst.bind acc x s_term
        | Atom.Cst _ -> acc)
      Atom.Subst.empty tgt.Query.head m.src_query.Query.head
  in
  let rhs = List.map (Atom.apply subst) tgt.Query.body in
  Dependency.tgd ~name:m.m_name ~lhs:m.src_query.Query.body rhs

(* --- algebra ----------------------------------------------------------- *)

let algebra_of_atoms schema atoms ~head ~outer =
  let fresh = ref 0 in
  let selects = ref [] in
  let exprs =
    List.map
      (fun (a : Atom.t) ->
        let tbl = Schema.find_table_exn schema a.Atom.pred in
        let cols = Schema.column_names tbl in
        if List.length cols <> List.length a.args then
          invalid_arg (Printf.sprintf "algebra: arity mismatch on %s" a.pred);
        let seen = Hashtbl.create 8 in
        let pairs =
          List.map2
            (fun col term ->
              match term with
              | Atom.Var x when not (Hashtbl.mem seen x) ->
                  Hashtbl.replace seen x ();
                  (col, x)
              | Atom.Var x ->
                  (* repeated variable within one atom: equality select *)
                  incr fresh;
                  let tmp = Printf.sprintf "%s__%d" x !fresh in
                  selects := Algebra.Eq (Algebra.Col x, Algebra.Col tmp) :: !selects;
                  (col, tmp)
              | Atom.Cst c ->
                  incr fresh;
                  let tmp = Printf.sprintf "_c__%d" !fresh in
                  selects := Algebra.Eq (Algebra.Col tmp, Algebra.Const c) :: !selects;
                  (col, tmp))
            cols a.args
        in
        Algebra.Rename (pairs, Algebra.Table a.pred))
      atoms
  in
  let joined =
    match exprs with
    | [] -> invalid_arg "algebra: empty body"
    | e :: rest ->
        List.fold_left
          (fun acc e' ->
            if outer then Algebra.FullOuter (acc, e') else Algebra.Join (acc, e'))
          e rest
  in
  let with_selects =
    List.fold_left (fun acc p -> Algebra.Select (p, acc)) joined !selects
  in
  let head_cols =
    List.map
      (function
        | Atom.Var x -> x
        | Atom.Cst _ -> invalid_arg "algebra: constant head")
      head
  in
  Algebra.Project (head_cols, with_selects)

let algebra_of_query schema (q : Query.t) =
  algebra_of_atoms schema q.Query.body ~head:q.Query.head ~outer:false

let src_algebra schema m =
  algebra_of_atoms schema m.src_query.Query.body ~head:m.src_query.Query.head
    ~outer:m.outer

(* --- outer-join realisation as Skolemized tgd variants ------------------ *)

(* For an [outer] mapping whose source body joins sibling tables, the
   full-outer-join semantics is a *set* of tgds — one per subset of the
   joined atoms — whose target key existentials are Skolemized over the
   join variables. Triggers from different variants then agree on the
   Skolem term, and the target's key egds merge their partial rows into
   the outer-join result (the nested-mapping mechanism of [Fuxman et
   al. VLDB'06] that the paper cites). *)
let outer_variants ~target m =
  let tgd = to_tgd m in
  let atoms = tgd.Dependency.lhs in
  let n = List.length atoms in
  let var_atoms x =
    List.filter (fun (a : Atom.t) -> List.mem x (Atom.vars a)) atoms
  in
  let join_vars =
    List.filter
      (fun x -> List.length (var_atoms x) >= 2)
      (Atom.vars_of_list atoms)
  in
  let all_atoms_share_joins =
    List.for_all
      (fun (a : Atom.t) ->
        List.for_all (fun j -> List.mem j (Atom.vars a)) join_vars)
      atoms
  in
  if (not m.outer) || n < 2 || n > 3 || join_vars = []
     || not all_atoms_share_joins
  then [ tgd ]
  else begin
    let universal = Dependency.universal_vars tgd in
    (* skolemize target-key existentials over the join variables; the
       Skolem function is named after the key column it fills *)
    let key_site (rhs : Atom.t list) x =
      List.find_map
        (fun (a : Atom.t) ->
          let t = Schema.find_table_exn target a.Atom.pred in
          let cols = Schema.column_names t in
          List.find_map
            (fun (col, term) ->
              if
                List.mem col t.Schema.key
                &&
                match term with
                | Atom.Var y -> String.equal x y
                | Atom.Cst _ -> false
              then Some (a.Atom.pred ^ "_" ^ col)
              else None)
            (List.combine cols a.Atom.args))
        rhs
    in
    let skolemize f = Chase.skolem_var ~f ~args:join_vars in
    (* non-empty subsets of the atom list, full set first *)
    let rec subsets = function
      | [] -> [ [] ]
      | a :: rest ->
          let s = subsets rest in
          List.map (fun t -> a :: t) s @ s
    in
    let variants =
      List.filter (fun s -> s <> []) (subsets atoms)
      |> List.sort (fun a b -> compare (List.length b) (List.length a))
    in
    List.mapi
      (fun i lhs ->
        let available = Atom.vars_of_list lhs in
        let fresh = ref 0 in
        let rhs =
          List.map
            (fun (a : Atom.t) ->
              {
                a with
                Atom.args =
                  List.map
                    (fun term ->
                      match term with
                      | Atom.Cst _ -> term
                      | Atom.Var x -> (
                          match
                            if List.mem x universal then None
                            else key_site tgd.Dependency.rhs x
                          with
                          | Some f -> Atom.Var (skolemize f)
                          | None ->
                          if List.mem x available then term
                          else begin
                            (* a head variable this variant cannot bind *)
                            incr fresh;
                            Atom.Var (Printf.sprintf "nx_%s_%d" x !fresh)
                          end))
                    a.Atom.args;
              })
            tgd.Dependency.rhs
        in
        Dependency.tgd
          ~name:(Printf.sprintf "%s~%d" m.m_name i)
          ~lhs rhs)
      variants
  end

(* --- comparison -------------------------------------------------------- *)

let boolean_equivalent (a : Query.t) (b : Query.t) =
  let strip q = { q with Query.head = [] } in
  Query.equivalent (strip a) (strip b)

let same_metadata a b =
  List.length a.covered = List.length b.covered
  && List.for_all2 (fun x y -> compare_corr x y = 0) a.covered b.covered
  && a.outer = b.outer

let same a b =
  same_metadata a b
  && boolean_equivalent a.src_query b.src_query
  && boolean_equivalent a.tgt_query b.tgt_query

let same_under ~source ~target a b =
  (* Heads stay in play: both heads are canonically ordered by the
     sorted covered list, and homomorphisms align them positionally, so
     this distinguishes *which* columns feed each correspondence —
     stripping heads before saturating would conflate all connected
     joins over the same tables. *)
  let equiv_under schema (x : Query.t) (y : Query.t) =
    Query.contained_under ~schema x y && Query.contained_under ~schema y x
  in
  same_metadata a b
  && equiv_under source a.src_query b.src_query
  && equiv_under target a.tgt_query b.tgt_query

let tables_of (q : Query.t) =
  List.sort_uniq compare (List.map (fun (a : Atom.t) -> a.Atom.pred) q.Query.body)

let is_trivial m =
  List.length (tables_of m.src_query) <= 1
  && List.length (tables_of m.tgt_query) <= 1

let pp ppf m =
  (* Query.pp opens no box: each query, and the covers list, gets its
     own, or every comma in it would break the vertical box *)
  Fmt.pf ppf
    "@[<v2>%s (score %.2f%s):@,src: @[<hov2>%a@]@,tgt: @[<hov2>%a@]@,\
     covers: @[<hov2>%a@]%a@]"
    m.m_name m.score
    (if m.outer then ", outer" else "")
    Query.pp m.src_query Query.pp m.tgt_query
    (Fmt.list ~sep:Fmt.comma pp_corr)
    m.covered
    (fun ppf notes ->
      List.iter (fun n -> Fmt.pf ppf "@,· %s" n) notes)
    m.provenance
