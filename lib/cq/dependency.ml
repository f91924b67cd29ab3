module Schema = Smg_relational.Schema

type tgd = { tgd_name : string; lhs : Atom.t list; rhs : Atom.t list }
type egd = { egd_name : string; elhs : Atom.t list; eq : string * string }

let tgd ?(name = "tgd") ~lhs rhs =
  if lhs = [] || rhs = [] then invalid_arg "tgd: empty side";
  { tgd_name = name; lhs; rhs }

let egd ?(name = "egd") ~lhs eq = { egd_name = name; elhs = lhs; eq }

let universal_vars t =
  let rvars = Atom.vars_of_list t.rhs in
  List.filter (fun x -> List.mem x rvars) (Atom.vars_of_list t.lhs)

let existential_vars t =
  let lvars = Atom.vars_of_list t.lhs in
  List.filter (fun x -> not (List.mem x lvars)) (Atom.vars_of_list t.rhs)

let table_atom (t : Schema.table) ~var_of =
  Atom.atom t.tbl_name
    (List.map (fun c -> Atom.Var (var_of c.Schema.col_name)) t.columns)

let key_egds schema =
  List.concat_map
    (fun (t : Schema.table) ->
      if t.Schema.key = [] then []
      else
        let cols = Schema.column_names t in
        let non_key = List.filter (fun c -> not (List.mem c t.key)) cols in
        List.map
          (fun nk ->
            let a1 =
              table_atom t ~var_of:(fun c ->
                  if List.mem c t.key then "k_" ^ c else "a_" ^ c)
            in
            let a2 =
              table_atom t ~var_of:(fun c ->
                  if List.mem c t.key then "k_" ^ c else "b_" ^ c)
            in
            egd
              ~name:(Printf.sprintf "key:%s/%s" t.tbl_name nk)
              ~lhs:[ a1; a2 ]
              ("a_" ^ nk, "b_" ^ nk))
          non_key)
    schema.Schema.tables

let ric_tgds schema =
  List.map
    (fun (r : Schema.ric) ->
      let from_t = Schema.find_table_exn schema r.from_table in
      let to_t = Schema.find_table_exn schema r.to_table in
      let lhs_atom = table_atom from_t ~var_of:(fun c -> "f_" ^ c) in
      (* Align referenced columns with the referencing variables. *)
      let pairings = List.combine r.to_cols r.from_cols in
      let rhs_atom =
        table_atom to_t ~var_of:(fun c ->
            match List.assoc_opt c pairings with
            | Some fc -> "f_" ^ fc
            | None -> "e_" ^ c)
      in
      tgd ~name:("ric:" ^ r.ric_name) ~lhs:[ lhs_atom ] [ rhs_atom ])
    schema.Schema.rics

let equal_tgd a b =
  (* Compare via the canonical query reading: a tgd maps to the pair of
     CQs (lhs with universal vars as head, rhs with the same head). *)
  let canon (t : tgd) =
    let u = universal_vars t in
    let head = List.map (fun x -> Atom.Var x) u in
    ( Query.make ~name:"l" ~head t.lhs,
      Query.make ~name:"r" ~head t.rhs )
  in
  let la, ra = canon a and lb, rb = canon b in
  List.length la.Query.head = List.length lb.Query.head
  && Query.equivalent la lb && Query.equivalent ra rb

let pp_tgd ppf t =
  let ex = existential_vars t in
  let pp_ex ppf = function
    | [] -> ()
    | xs -> Fmt.pf ppf "∃%a. " (Fmt.list ~sep:Fmt.comma Fmt.string) xs
  in
  Fmt.pf ppf "@[<hov2>%s:@ %a@ →@ %a%a@]" t.tgd_name
    (Fmt.list ~sep:(Fmt.any " ∧@ ") Atom.pp)
    t.lhs pp_ex ex
    (Fmt.list ~sep:(Fmt.any " ∧@ ") Atom.pp)
    t.rhs

let pp_egd ppf e =
  let x, y = e.eq in
  Fmt.pf ppf "@[<hov2>%s:@ %a@ →@ %s = %s@]" e.egd_name
    (Fmt.list ~sep:(Fmt.any " ∧@ ") Atom.pp)
    e.elhs x y
