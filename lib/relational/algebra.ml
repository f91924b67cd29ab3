type operand = Col of string | Const of Value.t

type pred =
  | True
  | Eq of operand * operand
  | Neq of operand * operand
  | Lt of operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Table of string
  | Select of pred * t
  | Project of string list * t
  | Rename of (string * string) list * t
  | Join of t * t
  | Product of t * t
  | Union of t * t
  | Diff of t * t
  | LeftOuter of t * t
  | FullOuter of t * t

let natural_join_cols h1 h2 = List.filter (fun c -> List.mem c h2) h1

let rename_header pairs header =
  List.map
    (fun c ->
      match List.assoc_opt c pairs with Some c' -> c' | None -> c)
    header

let rec columns schema e =
  match e with
  | Table name -> Schema.column_names (Schema.find_table_exn schema name)
  | Select (_, e) -> columns schema e
  | Project (cols, e) ->
      let h = columns schema e in
      List.iter
        (fun c ->
          if not (List.mem c h) then
            invalid_arg (Printf.sprintf "project: unknown column %s" c))
        cols;
      cols
  | Rename (pairs, e) -> rename_header pairs (columns schema e)
  | Join (a, b) ->
      let ha = columns schema a and hb = columns schema b in
      ha @ List.filter (fun c -> not (List.mem c ha)) hb
  | Product (a, b) ->
      let ha = columns schema a and hb = columns schema b in
      List.iter
        (fun c ->
          if List.mem c ha then
            invalid_arg (Printf.sprintf "product: column clash %s" c))
        hb;
      ha @ hb
  | Union (a, b) | Diff (a, b) ->
      let ha = columns schema a and hb = columns schema b in
      if List.sort compare ha <> List.sort compare hb then
        invalid_arg "set operation over mismatched headers";
      ha
  | LeftOuter (a, b) | FullOuter (a, b) ->
      let ha = columns schema a and hb = columns schema b in
      ha @ List.filter (fun c -> not (List.mem c ha)) hb

let index_of header c =
  let rec go k = function
    | [] -> invalid_arg (Printf.sprintf "eval: unknown column %s" c)
    | h :: t -> if String.equal h c then k else go (k + 1) t
  in
  go 0 header

let eval_operand header tup = function
  | Col c -> tup.(index_of header c)
  | Const v -> v

let rec eval_pred header tup = function
  | True -> true
  | Eq (a, b) ->
      Value.equal (eval_operand header tup a) (eval_operand header tup b)
  | Neq (a, b) ->
      not (Value.equal (eval_operand header tup a) (eval_operand header tup b))
  | Lt (a, b) ->
      Value.compare (eval_operand header tup a) (eval_operand header tup b) < 0
  | And (p, q) -> eval_pred header tup p && eval_pred header tup q
  | Or (p, q) -> eval_pred header tup p || eval_pred header tup q
  | Not p -> not (eval_pred header tup p)

let dedup (r : Instance.relation) : Instance.relation =
  let seen = Hashtbl.create 64 in
  let tuples =
    List.filter
      (fun tup ->
        let k =
          String.concat "\x00"
            (Array.to_list (Array.map Value.to_string tup))
        in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      r.tuples
  in
  { r with tuples }

let join_generic ~kind (a : Instance.relation) (b : Instance.relation) :
    Instance.relation =
  let shared = natural_join_cols a.header b.header in
  let b_extra = List.filter (fun c -> not (List.mem c shared)) b.header in
  let header = a.header @ b_extra in
  let a_idx = List.map (index_of a.header) shared in
  let b_idx = List.map (index_of b.header) shared in
  let b_extra_idx = List.map (index_of b.header) b_extra in
  (* Hash b tuples by shared-column key. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun tb ->
      let k =
        String.concat "\x00"
          (List.map (fun i -> Value.to_string tb.(i)) b_idx)
      in
      Hashtbl.add tbl k tb)
    b.tuples;
  let matched_b = Hashtbl.create 64 in
  let rows = ref [] in
  List.iter
    (fun ta ->
      let k =
        String.concat "\x00"
          (List.map (fun i -> Value.to_string ta.(i)) a_idx)
      in
      let matches = Hashtbl.find_all tbl k in
      if matches = [] then begin
        match kind with
        | `Inner -> ()
        | `Left | `Full ->
            let pad = List.map (fun _ -> Value.fresh_null ()) b_extra_idx in
            rows := Array.append ta (Array.of_list pad) :: !rows
      end
      else
        List.iter
          (fun tb ->
            Hashtbl.replace matched_b
              (String.concat "\x00"
                 (Array.to_list (Array.map Value.to_string tb)))
              ();
            let extra = List.map (fun i -> tb.(i)) b_extra_idx in
            rows := Array.append ta (Array.of_list extra) :: !rows)
          matches)
    a.tuples;
  (match kind with
  | `Full ->
      (* Unmatched b tuples, padded on the a-only columns. *)
      let a_only = List.filter (fun c -> not (List.mem c shared)) a.header in
      List.iter
        (fun tb ->
          let key =
            String.concat "\x00"
              (Array.to_list (Array.map Value.to_string tb))
          in
          if not (Hashtbl.mem matched_b key) then begin
            let cell c =
              if List.mem c a_only then Value.fresh_null ()
              else tb.(index_of b.header c)
            in
            rows := Array.of_list (List.map cell header) :: !rows
          end)
        b.tuples
  | `Inner | `Left -> ());
  dedup { header; tuples = List.rev !rows }

let rec eval schema inst e : Instance.relation =
  match e with
  | Table name ->
      let t = Schema.find_table_exn schema name in
      Instance.relation_or_empty inst name ~header:(Schema.column_names t)
  | Select (p, e) ->
      let r = eval schema inst e in
      { r with tuples = List.filter (fun t -> eval_pred r.header t p) r.tuples }
  | Project (cols, e) ->
      let r = eval schema inst e in
      let idx = List.map (index_of r.header) cols in
      dedup
        {
          header = cols;
          tuples =
            List.map
              (fun t -> Array.of_list (List.map (fun i -> t.(i)) idx))
              r.tuples;
        }
  | Rename (pairs, e) ->
      let r = eval schema inst e in
      { r with header = rename_header pairs r.header }
  | Join (a, b) -> join_generic ~kind:`Inner (eval schema inst a) (eval schema inst b)
  | Product (a, b) ->
      let ra = eval schema inst a and rb = eval schema inst b in
      let header = ra.header @ rb.header in
      let tuples =
        List.concat_map
          (fun ta -> List.map (fun tb -> Array.append ta tb) rb.tuples)
          ra.tuples
      in
      dedup { header; tuples }
  | Union (a, b) ->
      let ra = eval schema inst a and rb = eval schema inst b in
      let rb_aligned =
        List.map (fun t -> Instance.project_tuple rb t ra.header) rb.tuples
      in
      dedup { ra with tuples = ra.tuples @ rb_aligned }
  | Diff (a, b) ->
      let ra = eval schema inst a and rb = eval schema inst b in
      let keys = Hashtbl.create 64 in
      List.iter
        (fun t ->
          let t = Instance.project_tuple rb t ra.header in
          Hashtbl.replace keys
            (String.concat "\x00"
               (Array.to_list (Array.map Value.to_string t)))
            ())
        rb.tuples;
      {
        ra with
        tuples =
          List.filter
            (fun t ->
              not
                (Hashtbl.mem keys
                   (String.concat "\x00"
                      (Array.to_list (Array.map Value.to_string t)))))
            ra.tuples;
      }
  | LeftOuter (a, b) ->
      join_generic ~kind:`Left (eval schema inst a) (eval schema inst b)
  | FullOuter (a, b) ->
      join_generic ~kind:`Full (eval schema inst a) (eval schema inst b)

let pp_operand ppf = function
  | Col c -> Fmt.string ppf c
  | Const v -> Value.pp ppf v

let rec pp_pred ppf = function
  | True -> Fmt.string ppf "true"
  | Eq (a, b) -> Fmt.pf ppf "%a = %a" pp_operand a pp_operand b
  | Neq (a, b) -> Fmt.pf ppf "%a <> %a" pp_operand a pp_operand b
  | Lt (a, b) -> Fmt.pf ppf "%a < %a" pp_operand a pp_operand b
  | And (p, q) -> Fmt.pf ppf "(%a ∧ %a)" pp_pred p pp_pred q
  | Or (p, q) -> Fmt.pf ppf "(%a ∨ %a)" pp_pred p pp_pred q
  | Not p -> Fmt.pf ppf "¬%a" pp_pred p

let rec pp_expr ppf = function
  | Table name -> Fmt.string ppf name
  | Select (p, e) -> Fmt.pf ppf "σ[%a](%a)" pp_pred p pp_expr e
  | Project (cols, e) ->
      Fmt.pf ppf "π[%a](%a)" Fmt.(list ~sep:comma string) cols pp_expr e
  | Rename (pairs, e) ->
      Fmt.pf ppf "ρ[%a](%a)"
        Fmt.(
          list ~sep:comma (fun ppf (o, n) -> Fmt.pf ppf "%s→%s" o n))
        pairs pp_expr e
  | Join (a, b) -> Fmt.pf ppf "(%a@ ⋈ %a)" pp_expr a pp_expr b
  | Product (a, b) -> Fmt.pf ppf "(%a@ × %a)" pp_expr a pp_expr b
  | Union (a, b) -> Fmt.pf ppf "(%a@ ∪ %a)" pp_expr a pp_expr b
  | Diff (a, b) -> Fmt.pf ppf "(%a@ − %a)" pp_expr a pp_expr b
  | LeftOuter (a, b) -> Fmt.pf ppf "(%a@ ⟕ %a)" pp_expr a pp_expr b
  | FullOuter (a, b) -> Fmt.pf ppf "(%a@ ⟗ %a)" pp_expr a pp_expr b

(* one indenting box: a line broken inside the expression continues two
   columns right of where the expression starts *)
let pp ppf e = Fmt.pf ppf "@[<hov2>%a@]" pp_expr e
