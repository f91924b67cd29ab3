module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase
module Mapping = Smg_cq.Mapping
module Hom = Smg_cq.Hom

(* the distinguished constant a variable freezes to in a canonical
   instance; the prefix keeps it apart from every real value *)
let frozen_value x = Value.VString ("\000frz!" ^ x)

let canonical_instance schema atoms =
  List.fold_left
    (fun inst (a : Atom.t) ->
      let header = Schema.column_names (Schema.find_table_exn schema a.Atom.pred) in
      let tup =
        Array.of_list
          (List.map
             (function Atom.Var x -> frozen_value x | Atom.Cst c -> c)
             a.Atom.args)
      in
      Instance.add_tuple inst a.Atom.pred ~header tup)
    Instance.empty atoms

(* The chase machinery is predicate-name based, and a source and target
   schema may share table names (the Mondial pair names both sides'
   country tables [country]). Namespace the two sides apart: an s-t
   tgd's lhs always reads over source tables and its rhs over target
   tables, so prefixing is deterministic. *)
let src_ns = "s\xc2\xa7"
let tgt_ns = "t\xc2\xa7"

let prefix_atoms p = List.map (fun (a : Atom.t) -> { a with Atom.pred = p ^ a.Atom.pred })

let ns_tgd (t : Dependency.tgd) =
  {
    t with
    Dependency.lhs = prefix_atoms src_ns t.Dependency.lhs;
    Dependency.rhs = prefix_atoms tgt_ns t.Dependency.rhs;
  }

let ns_tables p (s : Schema.t) =
  List.map
    (fun (tbl : Schema.table) ->
      { tbl with Schema.tbl_name = p ^ tbl.Schema.tbl_name })
    s.Schema.tables

(* Chase the canonical (frozen-lhs) instance of [t] with [by] over the
   namespaced combined schema; returns the namespaced [t] alongside the
   chase result so callers can test its rhs against the output. *)
let chase_canonical_ns ~source ~target ~by (t : Dependency.tgd) =
  let combined =
    Schema.make
      ~name:(source.Schema.schema_name ^ "+" ^ target.Schema.schema_name)
      (ns_tables src_ns source @ ns_tables tgt_ns target)
      []
  in
  let t = ns_tgd t and by = List.map ns_tgd by in
  let canonical = canonical_instance combined t.Dependency.lhs in
  let out =
    match Chase.run ~schema:combined ~tgds:by ~egds:[] canonical with
    | Chase.Failed _ -> None
    | Chase.Saturated out | Chase.Bounded out -> Some out
  in
  (t, out)

let chase_canonical ~source ~target ~by t =
  snd (chase_canonical_ns ~source ~target ~by t)

let tgd_implied_by ~source ~target ~by (t : Dependency.tgd) =
  match chase_canonical_ns ~source ~target ~by t with
  | _, None -> false
  | t, Some out ->
      let lhs_vars = Atom.vars_of_list t.Dependency.lhs in
      let rhs =
        List.map
          (fun (a : Atom.t) ->
            {
              a with
              Atom.args =
                List.map
                  (function
                    | Atom.Var x when List.mem x lhs_vars ->
                        Atom.Cst (frozen_value x)
                    | term -> term)
                  a.Atom.args;
            })
          t.Dependency.rhs
      in
      Hom.holds (Hom.index (Array.to_list (Array.map Icore.frozen (Icore.facts out)))) rhs

let implies ~source ~target a b =
  tgd_implied_by ~source ~target ~by:[ Mapping.to_tgd a ] (Mapping.to_tgd b)

let equivalent ~source ~target a b =
  implies ~source ~target a b && implies ~source ~target b a

type rel = Equivalent | Implies | ImpliedBy | Incomparable

let relate ~source ~target a b =
  match (implies ~source ~target a b, implies ~source ~target b a) with
  | true, true -> Equivalent
  | true, false -> Implies
  | false, true -> ImpliedBy
  | false, false -> Incomparable

let rel_symbol = function
  | Equivalent -> "="
  | Implies -> ">"
  | ImpliedBy -> "<"
  | Incomparable -> "."

type report = {
  rp_in : int;
  rp_kept : Mapping.t list;
  rp_classes : (Mapping.t * Mapping.t list) list;
  rp_subsumed : (Mapping.t * int) list;
}

let n_classes r = List.length r.rp_classes
let n_collapsed r = List.fold_left (fun acc (_, eqs) -> acc + List.length eqs) 0 r.rp_classes
let n_subsumed r = List.length r.rp_subsumed

let annotate (m : Mapping.t) note =
  { m with Mapping.provenance = m.Mapping.provenance @ [ note ] }

let dedup ?pool ~source ~target ms =
  let arr = Array.of_list ms in
  let n = Array.length arr in
  (* Each chase-based implication check is independent of the others, so
     with a pool the whole pairwise matrix is computed up front as
     parallel tasks keyed by (i, j) — schedule-independent, hence the
     same answers for any domain count. Without a pool, checks run
     lazily with the original greedy short-circuiting. *)
  let cache = Hashtbl.create (max 16 (n * n)) in
  let imp i j =
    match Hashtbl.find_opt cache (i, j) with
    | Some b -> b
    | None ->
        let b = implies ~source ~target arr.(i) arr.(j) in
        Hashtbl.add cache (i, j) b;
        b
  in
  (match pool with
  | Some pool when n > 1 ->
      let pairs =
        Array.init (n * (n - 1)) (fun k ->
            let i = k / (n - 1) and r = k mod (n - 1) in
            (i, if r >= i then r + 1 else r))
      in
      let res =
        Smg_parallel.Pool.map pool
          (fun (i, j) -> implies ~source ~target arr.(i) arr.(j))
          pairs
      in
      Array.iteri (fun k p -> Hashtbl.replace cache p res.(k)) pairs
  | Some _ | None -> ());
  let eqv i j = imp i j && imp j i in
  (* Pass 1: group into logical equivalence classes, best-ranked
     representative first. *)
  let classes_idx =
    List.fold_left
      (fun classes i ->
        let rec absorb = function
          | [] -> None
          | (rep, eqs) :: rest ->
              if eqv rep i then Some ((rep, eqs @ [ i ]) :: rest)
              else Option.map (fun cs -> (rep, eqs) :: cs) (absorb rest)
        in
        match absorb classes with
        | Some classes -> classes
        | None -> classes @ [ (i, []) ])
      []
      (List.init n Fun.id)
  in
  (* Pass 2: a representative strictly implied by a better-ranked one is
     subsumed — it asserts nothing the stronger candidate does not. *)
  let reps_idx = List.map fst classes_idx in
  let subsumed_idx =
    List.concat
      (List.mapi
         (fun i m ->
           let better = List.filteri (fun j _ -> j < i) reps_idx in
           match List.find_index (fun s -> imp s m) better with
           | Some j -> [ (m, j + 1) ]
           | None -> [])
         reps_idx)
  in
  let classes =
    List.map
      (fun (rep, eqs) -> (arr.(rep), List.map (fun i -> arr.(i)) eqs))
      classes_idx
  in
  let subsumed = List.map (fun (m, j) -> (arr.(m), j)) subsumed_idx in
  let kept =
    List.map2
      (fun (rep_i, eqs_i) (rep, eqs) ->
        let rep =
          if eqs = [] then rep
          else
            annotate rep
              (Printf.sprintf
                 "dedup: absorbed %d logically equivalent candidate(s): %s"
                 (List.length eqs)
                 (String.concat ", "
                    (List.map (fun (m : Mapping.t) -> m.Mapping.m_name) eqs)))
        in
        ignore eqs_i;
        match List.assoc_opt rep_i subsumed_idx with
        | Some j ->
            annotate rep
              (Printf.sprintf
                 "dedup: subsumed — logically implied by stronger candidate #%d"
                 j)
        | None -> rep)
      classes_idx classes
  in
  { rp_in = n; rp_kept = kept; rp_classes = classes; rp_subsumed = subsumed }

let summary r =
  Printf.sprintf
    "dedup: %d candidate(s) in, %d equivalence class(es) out (%d collapsed), %d subsumed"
    r.rp_in (n_classes r) (n_collapsed r) (n_subsumed r)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s@," (summary r);
  List.iteri
    (fun i (rep, eqs) ->
      Fmt.pf ppf "class #%d: %s (score %.2f)%a@," (i + 1) rep.Mapping.m_name
        rep.Mapping.score
        (fun ppf eqs ->
          List.iter
            (fun (m : Mapping.t) ->
              Fmt.pf ppf "@,  ≡ %s (score %.2f)" m.Mapping.m_name
                m.Mapping.score)
            eqs)
        eqs)
    r.rp_classes;
  List.iter
    (fun ((m : Mapping.t), j) ->
      Fmt.pf ppf "subsumed: %s — implied by class #%d@," m.Mapping.m_name j)
    r.rp_subsumed;
  Fmt.pf ppf "@]"
