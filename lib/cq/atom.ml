module Value = Smg_relational.Value

type term = Var of string | Cst of Value.t

type t = { pred : string; args : term list }

module SMap = Map.Make (String)

module Subst = struct
  type nonrec t = term SMap.t

  let empty = SMap.empty
  let find s x = SMap.find_opt x s
  let bind s x t = SMap.add x t s
  let bindings s = SMap.bindings s
  let of_list l = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty l
end

let v x = Var x
let c x = Cst x
let str s = Cst (Value.VString s)
let atom pred args = { pred; args }

let apply_term s = function
  | Var x as t -> ( match Subst.find s x with Some t' -> t' | None -> t)
  | Cst _ as t -> t

let apply s a = { a with args = List.map (apply_term s) a.args }
let term_vars = function Var x -> [ x ] | Cst _ -> []
let vars a = List.concat_map term_vars a.args

let vars_of_list atoms =
  let seen = Hashtbl.create 16 in
  List.concat_map vars atoms
  |> List.filter (fun x ->
         if Hashtbl.mem seen x then false
         else begin
           Hashtbl.replace seen x ();
           true
         end)

let equal_term a b =
  match (a, b) with
  | Var x, Var y -> String.equal x y
  | Cst x, Cst y -> Value.equal x y
  | (Var _ | Cst _), _ -> false

let equal a b =
  String.equal a.pred b.pred
  && List.length a.args = List.length b.args
  && List.for_all2 equal_term a.args b.args

let compare = Stdlib.compare

let pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | Cst v -> Value.pp ppf v

let pp ppf a =
  Fmt.pf ppf "@[<hov2>%s(%a)@]" a.pred (Fmt.list ~sep:Fmt.comma pp_term) a.args
