module Value = Smg_relational.Value
module Instance = Smg_relational.Instance

type t = { name : string; head : Atom.term list; body : Atom.t list }

let make ?(name = "q") ~head body = { name; head; body }

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let head_vars q = dedup (List.concat_map Atom.term_vars q.head)
let body_vars q = Atom.vars_of_list q.body

let rename_apart ~suffix q =
  let ren = function
    | Atom.Var x -> Atom.Var (x ^ suffix)
    | Atom.Cst _ as t -> t
  in
  {
    q with
    head = List.map ren q.head;
    body = List.map (fun a -> { a with Atom.args = List.map ren a.Atom.args }) q.body;
  }

let homomorphism ~from_ ~to_ =
  if List.length from_.head <> List.length to_.head then None
  else
    (* Seed the substitution with the head constraint. *)
    let seed =
      List.fold_left2
        (fun acc fh th ->
          match acc with
          | None -> None
          | Some s -> (
              match fh with
              | Atom.Cst _ -> if Atom.equal_term fh th then acc else None
              | Atom.Var x -> (
                  match Atom.Subst.find s x with
                  | Some bound ->
                      if Atom.equal_term bound th then acc else None
                  | None -> Some (Atom.Subst.bind s x th))))
        (Some Atom.Subst.empty) from_.head to_.head
    in
    match seed with
    | None -> None
    | Some seed -> Hom.find ~init:seed (Hom.index to_.body) from_.body

let contained_in q1 q2 = Option.is_some (homomorphism ~from_:q2 ~to_:q1)
let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

(* Fold the query onto a subquery: an atom goes when the full query
   still maps into the remaining body, head fixed. One pass suffices:
   dropping atoms only removes fold targets, so an atom that could not
   be dropped never can later. *)
let minimize q =
  (* an atom whose predicate no other atom has cannot fold away *)
  let preds = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      Hashtbl.replace preds a.pred
        (1 + Option.value ~default:0 (Hashtbl.find_opt preds a.pred)))
    q.body;
  let rec shrink kept = function
    | [] -> List.rev kept
    | (a : Atom.t) :: rest ->
        if Hashtbl.find preds a.pred = 1 then shrink (a :: kept) rest
        else
          let without = { q with body = List.rev_append kept rest } in
          if Option.is_some (homomorphism ~from_:q ~to_:without) then begin
            Hashtbl.replace preds a.pred (Hashtbl.find preds a.pred - 1);
            shrink kept rest
          end
          else shrink (a :: kept) rest
  in
  { q with body = shrink [] q.body }

let ground_matches inst atoms =
  let module SM = Map.Make (String) in
  let rec go env = function
    | [] -> [ env ]
    | (a : Atom.t) :: rest -> (
        match Instance.relation inst a.pred with
        | None -> []
        | Some rel ->
            let n = List.length a.args in
            List.concat_map
              (fun tup ->
                if Array.length tup <> n then []
                else
                  let rec unify env k = function
                    | [] -> Some env
                    | Atom.Cst c :: more ->
                        if Value.equal c tup.(k) then unify env (k + 1) more
                        else None
                    | Atom.Var x :: more -> (
                        match SM.find_opt x env with
                        | Some v ->
                            if Value.equal v tup.(k) then
                              unify env (k + 1) more
                            else None
                        | None -> unify (SM.add x tup.(k) env) (k + 1) more)
                  in
                  match unify env 0 a.args with
                  | Some env' -> go env' rest
                  | None -> [])
              rel.Instance.tuples)
  in
  go SM.empty atoms |> List.map SM.bindings

let eval _schema inst q =
  let header =
    List.mapi
      (fun i t -> match t with Atom.Var x -> x | Atom.Cst _ -> Printf.sprintf "ans%d" i)
      q.head
  in
  let envs = ground_matches inst q.body in
  let tuples =
    List.map
      (fun env ->
        Array.of_list
          (List.map
             (fun t ->
               match t with
               | Atom.Cst c -> c
               | Atom.Var x -> (
                   match List.assoc_opt x env with
                   | Some v -> v
                   | None ->
                       invalid_arg
                         (Printf.sprintf "eval %s: unsafe head variable %s"
                            q.name x)))
             q.head))
      envs
  in
  (* set semantics *)
  let seen = Hashtbl.create 64 in
  let tuples =
    List.filter
      (fun tup ->
        let k =
          String.concat "\x00" (Array.to_list (Array.map Value.to_string tup))
        in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      tuples
  in
  { Instance.header; tuples }

let pp ppf q =
  Fmt.pf ppf "%s(%a) :- %a" q.name
    (Fmt.list ~sep:Fmt.comma Atom.pp_term)
    q.head
    (Fmt.list ~sep:Fmt.comma Atom.pp)
    q.body

(* Saturate a query body under the schema's RICs: a bounded symbolic
   chase that adds, for every atom referencing another table, the
   referenced atom with fresh variables (unless one with the same
   referenced-column arguments is already present). Used to compare
   queries *under dependencies*: q1 is contained in q2 under the RICs
   iff q2 maps homomorphically into the saturated q1. *)
let saturate ?(max_rounds = 4) ~schema q =
  let module Schema = Smg_relational.Schema in
  let arg_of (a : Atom.t) table column =
    let t = Schema.find_table_exn schema table in
    let rec go cols args =
      match (cols, args) with
      | c :: _, v :: _ when String.equal c column -> v
      | _ :: cs, _ :: vs -> go cs vs
      | _, _ -> invalid_arg "saturate: arity"
    in
    go (Schema.column_names t) a.Atom.args
  in
  let fresh = ref 0 in
  let rec rounds body k =
    if k >= max_rounds then body
    else begin
      let additions =
        List.concat_map
          (fun (a : Atom.t) ->
            List.filter_map
              (fun (r : Schema.ric) ->
                if not (String.equal a.Atom.pred r.Schema.from_table) then None
                else begin
                  let ref_args =
                    List.map (arg_of a r.Schema.from_table) r.Schema.from_cols
                  in
                  let satisfied =
                    List.exists
                      (fun (b : Atom.t) ->
                        String.equal b.Atom.pred r.Schema.to_table
                        && List.for_all2
                             (fun c v ->
                               Atom.equal_term (arg_of b r.Schema.to_table c) v)
                             r.Schema.to_cols ref_args)
                      body
                  in
                  if satisfied then None
                  else begin
                    let t = Schema.find_table_exn schema r.Schema.to_table in
                    let pairings = List.combine r.Schema.to_cols ref_args in
                    let args =
                      List.map
                        (fun c ->
                          match List.assoc_opt c pairings with
                          | Some v -> v
                          | None ->
                              incr fresh;
                              Atom.Var (Printf.sprintf "_sat%d" !fresh))
                        (Schema.column_names t)
                    in
                    Some (Atom.atom r.Schema.to_table args)
                  end
                end)
              schema.Schema.rics)
          body
      in
      (* deduplicate additions against each other *)
      let additions =
        List.fold_left
          (fun acc a -> if List.exists (Atom.equal a) acc then acc else a :: acc)
          [] additions
      in
      if additions = [] then body else rounds (body @ List.rev additions) (k + 1)
    end
  in
  { q with body = rounds q.body 0 }

let contained_under ~schema q1 q2 =
  Option.is_some (homomorphism ~from_:q2 ~to_:(saturate ~schema q1))
