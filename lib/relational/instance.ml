module SMap = Map.Make (String)

type relation = { header : string list; tuples : Value.t array list }

type t = relation SMap.t

let empty = SMap.empty
let of_list l = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty l
let relation i name = SMap.find_opt name i

let relation_or_empty i name ~header =
  match SMap.find_opt name i with
  | Some r -> r
  | None -> { header; tuples = [] }

let set i name r = SMap.add name r i
let names i = SMap.bindings i |> List.map fst

let tuple_equal a b =
  Array.length a = Array.length b
  &&
  let rec go k = k >= Array.length a || (Value.equal a.(k) b.(k) && go (k + 1)) in
  go 0

let mem_tuple r t = List.exists (tuple_equal t) r.tuples

let equal a b =
  let nonempty i =
    SMap.bindings i
    |> List.filter_map (fun (n, r) -> if r.tuples = [] then None else Some n)
  in
  let na = nonempty a and nb = nonempty b in
  List.length na = List.length nb
  && List.for_all2 String.equal na nb
  && List.for_all
       (fun n ->
         match (SMap.find_opt n a, SMap.find_opt n b) with
         | Some ra, Some rb ->
             List.length ra.tuples = List.length rb.tuples
             && List.for_all (fun t -> mem_tuple rb t) ra.tuples
         | _, _ -> false)
       na

let add_tuple i name ~header tup =
  let r = relation_or_empty i name ~header in
  if List.length r.header <> Array.length tup then
    invalid_arg
      (Printf.sprintf "add_tuple %s: arity %d vs header %d" name
         (Array.length tup) (List.length r.header));
  if mem_tuple r tup then i
  else SMap.add name { r with tuples = tup :: r.tuples } i

let cardinality i name =
  match SMap.find_opt name i with None -> 0 | Some r -> List.length r.tuples

let total_tuples i =
  SMap.fold (fun _ r acc -> acc + List.length r.tuples) i 0

let index_of header c =
  let rec go k = function
    | [] -> invalid_arg (Printf.sprintf "no column %s" c)
    | h :: t -> if String.equal h c then k else go (k + 1) t
  in
  go 0 header

let project_tuple r tup cols =
  Array.of_list (List.map (fun c -> tup.(index_of r.header c)) cols)

(* The cells' printed forms, NUL-separated: the key the membership
   checks below hash on. *)
let cells_key cells = String.concat "\x00" (List.map Value.to_string cells)
let tuple_key tup = cells_key (Array.to_list tup)

let check_keys schema inst =
  List.concat_map
    (fun (t : Schema.table) ->
      if t.key = [] then []
      else
        match SMap.find_opt t.tbl_name inst with
        | None -> []
        | Some r ->
            let tbl = Hashtbl.create 64 in
            List.filter_map
              (fun tup ->
                let k =
                  cells_key (List.map (fun c -> tup.(index_of r.header c)) t.key)
                in
                match Hashtbl.find_opt tbl k with
                | Some prev when not (tuple_equal prev tup) ->
                    Some (t.tbl_name, prev, tup)
                | Some _ -> None
                | None ->
                    Hashtbl.replace tbl k tup;
                    None)
              r.tuples)
    schema.Schema.tables

let check_rics schema inst =
  List.concat_map
    (fun (r : Schema.ric) ->
      match SMap.find_opt r.from_table inst with
      | None -> []
      | Some from_rel ->
          let to_rel =
            relation_or_empty inst r.to_table ~header:r.to_cols
          in
          let targets = Hashtbl.create 64 in
          List.iter
            (fun tup ->
              Hashtbl.replace targets
                (cells_key
                   (List.map (fun c -> tup.(index_of to_rel.header c)) r.to_cols))
                ())
            to_rel.tuples;
          List.filter_map
            (fun tup ->
              let k =
                cells_key
                  (List.map (fun c -> tup.(index_of from_rel.header c)) r.from_cols)
              in
              if Hashtbl.mem targets k then None else Some (r.ric_name, tup))
            from_rel.tuples)
    schema.Schema.rics

let pp_relation ppf r =
  Fmt.pf ppf "@[<v>(%a)@,%a@]"
    Fmt.(list ~sep:comma string)
    r.header
    (Fmt.list ~sep:Fmt.cut (fun ppf tup ->
         Fmt.pf ppf "(%a)"
           Fmt.(list ~sep:comma Value.pp)
           (Array.to_list tup)))
    (List.rev r.tuples)

let pp ppf i =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (name, r) ->
         Fmt.pf ppf "@[<v2>%s:@,%a@]" name pp_relation r))
    (SMap.bindings i)
