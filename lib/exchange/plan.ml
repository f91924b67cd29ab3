module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Atom = Smg_cq.Atom
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase

type binding = Slot of int | Const of Value.t

type scan = {
  sc_pred : string;
  sc_eqs : (int * binding) list;
      (* positions equated with an already-bound slot or a constant;
         together they form the probe key of this step's index *)
  sc_selfeqs : (int * int) list;
      (* repeated variable within this atom: position must equal the
         cell at the other (earlier) position *)
  sc_binds : (int * int) list;  (* position -> fresh slot bound here *)
}

type sk_arg = ASlot of int | AConst of Value.t | AApp of string * sk_arg list

type cell =
  | CSlot of int
  | CConst of Value.t
  | CNull of int  (* index into the trigger's fresh-null vector *)
  | CSkolem of string * sk_arg list
      (* Skolem function, arguments drawn from bound slots or embedded
         constants (composition substitutes constants into Skolem
         arguments) *)

type emit = { em_pred : string; em_cells : cell array }

type check_cell =
  | KSlot of int
  | KConst of Value.t
  | KEx of int
  | KSkolem of string * sk_arg list

type check = {
  ck_pred : string;
  ck_cells : check_cell array;
  ck_probe : int list;
      (* positions statically known when this check atom runs: bound
         slots, constants, and existentials introduced by earlier check
         atoms — the probe key of the satisfaction lookup *)
}

type t = {
  p_name : string;
  p_tgd : Dependency.tgd;
  p_nslots : int;
  p_scans : scan list;
  p_emits : emit list;
  p_checks : check list;
  p_nnulls : int;  (* plain (non-Skolem) existentials per trigger *)
  p_nex : int;  (* all existentials, as wildcards of the check *)
  p_slot_names : string array;
}

(* ---- compilation ------------------------------------------------------- *)

let order_atoms ?card ?lead atoms =
  (* Left-deep greedy join order: start from the most selective atom
     (most constants, then smallest relation), then repeatedly take the
     atom sharing the most variables with the bound set (ties: smallest
     relation). Disconnected atoms become cross products, last. *)
  let cardinality (a : Atom.t) =
    match card with Some f -> f a.Atom.pred | None -> 0
  in
  let n_consts (a : Atom.t) =
    List.length
      (List.filter (function Atom.Cst _ -> true | Atom.Var _ -> false) a.args)
  in
  let rec go bound acc = function
    | [] -> List.rev acc
    | remaining ->
        let score (a : Atom.t) =
          let joined =
            List.length
              (List.filter
                 (function
                   | Atom.Cst _ -> true
                   | Atom.Var x -> List.mem x bound)
                 a.args)
          in
          (joined, -cardinality a)
        in
        let best =
          List.fold_left
            (fun best a ->
              match best with
              | None -> Some a
              | Some b -> if score a > score b then Some a else best)
            None remaining
        in
        let a = Option.get best in
        let remaining = List.filter (fun a' -> a' != a) remaining in
        go (Atom.vars a @ bound) (a :: acc) remaining
  in
  match atoms with
  | [] -> []
  | _ ->
      let first =
        match lead with
        | Some i -> List.nth atoms i
        | None ->
            Option.get
              (List.fold_left
                 (fun best a ->
                   match best with
                   | None -> Some a
                   | Some b ->
                       if
                         (n_consts a, -cardinality a)
                         > (n_consts b, -cardinality b)
                       then Some a
                       else best)
                 None atoms)
      in
      let a = first in
      go (Atom.vars a) [ a ] (List.filter (fun a' -> a' != a) atoms)

let compile ?card ?lead ~source ~target (tgd : Dependency.tgd) =
  let slot_of = Hashtbl.create 16 in
  let slot_names = ref [] in
  let nslots = ref 0 in
  let fresh_slot x =
    let s = !nslots in
    Hashtbl.replace slot_of x s;
    slot_names := x :: !slot_names;
    incr nslots;
    s
  in
  let arity schema (a : Atom.t) =
    let t = Schema.find_table_exn schema a.Atom.pred in
    let n = List.length t.Schema.columns in
    if n <> List.length a.args then
      invalid_arg
        (Printf.sprintf "plan %s: arity mismatch on %s" tgd.Dependency.tgd_name
           a.Atom.pred);
    n
  in
  (* scans *)
  let scans =
    List.map
      (fun (a : Atom.t) ->
        ignore (arity source a);
        let eqs = ref [] and selfeqs = ref [] and binds = ref [] in
        let local = Hashtbl.create 8 in
        List.iteri
          (fun pos term ->
            match term with
            | Atom.Cst c -> eqs := (pos, Const c) :: !eqs
            | Atom.Var x -> (
                match Hashtbl.find_opt local x with
                | Some p0 -> selfeqs := (pos, p0) :: !selfeqs
                | None -> (
                    Hashtbl.replace local x pos;
                    match Hashtbl.find_opt slot_of x with
                    | Some s -> eqs := (pos, Slot s) :: !eqs
                    | None -> binds := (pos, fresh_slot x) :: !binds)))
          a.args;
        {
          sc_pred = a.pred;
          sc_eqs = List.rev !eqs;
          sc_selfeqs = List.rev !selfeqs;
          sc_binds = List.rev !binds;
        })
      (order_atoms ?card ?lead tgd.Dependency.lhs)
  in
  (* existentials: rhs variables with no lhs slot *)
  let nnulls = ref 0 and nex = ref 0 in
  let null_of = Hashtbl.create 8 and ex_of = Hashtbl.create 8 in
  let skolem_of = Hashtbl.create 8 in
  let existential x =
    if not (Hashtbl.mem ex_of x) then begin
      Hashtbl.replace ex_of x !nex;
      incr nex;
      match Chase.parse_skolem_var x with
      | Some (f, args) ->
          (* arguments: bound slots, embedded constants, or nested
             applications (composition output) compiled recursively *)
          let rec compile_arg a =
            match Chase.decode_skolem_arg a with
            | Chase.Sk_cst c -> AConst c
            | Chase.Sk_var v -> (
                match Hashtbl.find_opt slot_of v with
                | Some s -> ASlot s
                | None -> (
                    match Chase.parse_skolem_var v with
                    | Some (g, nested) -> AApp (g, List.map compile_arg nested)
                    | None ->
                        invalid_arg
                          (Printf.sprintf
                             "plan %s: skolem argument %s not universal"
                             tgd.Dependency.tgd_name v)))
          in
          Hashtbl.replace skolem_of x (f, List.map compile_arg args)
      | None ->
          Hashtbl.replace null_of x !nnulls;
          incr nnulls
    end
  in
  let emits =
    List.map
      (fun (a : Atom.t) ->
        ignore (arity target a);
        let cells =
          Array.of_list
            (List.map
               (fun term ->
                 match term with
                 | Atom.Cst c -> CConst c
                 | Atom.Var x -> (
                     match Hashtbl.find_opt slot_of x with
                     | Some s -> CSlot s
                     | None -> (
                         existential x;
                         match Hashtbl.find_opt skolem_of x with
                         | Some (f, args) -> CSkolem (f, args)
                         | None -> CNull (Hashtbl.find null_of x))))
               a.args)
        in
        { em_pred = a.pred; em_cells = cells })
      tgd.Dependency.rhs
  in
  (* satisfaction-check templates: plain existentials are wildcards, as
     in the restricted chase, but a Skolem-named existential has a value
     determined by the trigger's bindings — the check must compute it,
     or a trigger would be skipped because a *different* Skolem row is
     already present. *)
  let templates =
    List.map
      (fun (a : Atom.t) ->
        ( a.Atom.pred,
          Array.of_list
            (List.map
               (fun term ->
                 match term with
                 | Atom.Cst c -> KConst c
                 | Atom.Var x -> (
                     match Hashtbl.find_opt slot_of x with
                     | Some s -> KSlot s
                     | None -> (
                         existential x;
                         match Hashtbl.find_opt skolem_of x with
                         | Some (f, args) -> KSkolem (f, args)
                         | None -> KEx (Hashtbl.find ex_of x))))
               a.args) ))
      tgd.Dependency.rhs
  in
  (* The check runs its templates greedily by how many positions are
     statically known — slots, constants, Skolem cells, existentials an
     earlier template bound — ties in rhs order: a template whose probe
     key is empty scans its whole relation on every trigger, so it goes
     last, when earlier templates have bound its existentials.
     Satisfaction does not depend on the order. *)
  let introduced = Hashtbl.create 8 in
  let known = function
    | KSlot _ | KConst _ | KSkolem _ -> true
    | KEx e -> Hashtbl.mem introduced e
  in
  let rec order acc = function
    | [] -> List.rev acc
    | remaining ->
        let score (_, cells) =
          Array.fold_left (fun n cell -> if known cell then n + 1 else n) 0 cells
        in
        let best =
          List.fold_left
            (fun best t -> if score t > score best then t else best)
            (List.hd remaining) remaining
        in
        let pred, cells = best in
        let probe = ref [] in
        let fresh_here = Hashtbl.create 4 in
        Array.iteri
          (fun pos cell ->
            if known cell then probe := pos :: !probe
            else
              match cell with
              | KEx e -> Hashtbl.replace fresh_here e ()
              | KSlot _ | KConst _ | KSkolem _ -> ())
          cells;
        Hashtbl.iter (fun e () -> Hashtbl.replace introduced e ()) fresh_here;
        order
          ({ ck_pred = pred; ck_cells = cells; ck_probe = List.rev !probe } :: acc)
          (List.filter (fun t -> t != best) remaining)
  in
  let checks = order [] templates in
  let names = Array.of_list (List.rev !slot_names) in
  {
    p_name = tgd.Dependency.tgd_name;
    p_tgd = tgd;
    p_nslots = !nslots;
    p_scans = scans;
    p_emits = emits;
    p_checks = checks;
    p_nnulls = !nnulls;
    p_nex = !nex;
    p_slot_names = names;
  }

(* ---- pretty-printing (EXPLAIN) ----------------------------------------- *)

let pp_binding names ppf = function
  | Slot s -> Fmt.string ppf names.(s)
  | Const c -> Value.pp ppf c

let pp_scan names ppf (i, sc) =
  if i = 0 && sc.sc_eqs = [] then Fmt.pf ppf "scan %s" sc.sc_pred
  else if sc.sc_eqs = [] then Fmt.pf ppf "product %s" sc.sc_pred
  else
    Fmt.pf ppf "probe %s on (%a)" sc.sc_pred
      (Fmt.list ~sep:Fmt.comma (fun ppf (pos, b) ->
           Fmt.pf ppf "#%d=%a" pos (pp_binding names) b))
      sc.sc_eqs;
  List.iter (fun (p, p0) -> Fmt.pf ppf " [#%d=#%d]" p p0) sc.sc_selfeqs;
  List.iter (fun (p, s) -> Fmt.pf ppf " #%d->%s" p names.(s)) sc.sc_binds

let pp_cell names ppf = function
  | CSlot s -> Fmt.string ppf names.(s)
  | CConst c -> Value.pp ppf c
  | CNull k -> Fmt.pf ppf "null_%d" k
  | CSkolem (f, args) ->
      let rec pp_arg ppf = function
        | ASlot s -> Fmt.string ppf names.(s)
        | AConst c -> Value.pp ppf c
        | AApp (g, nested) ->
            Fmt.pf ppf "%s(%a)" g (Fmt.list ~sep:Fmt.comma pp_arg) nested
      in
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:Fmt.comma pp_arg) args

let pp ppf p =
  Fmt.pf ppf "@[<v2>plan %s:@," p.p_name;
  List.iteri (fun i sc -> Fmt.pf ppf "%a@," (pp_scan p.p_slot_names) (i, sc)) p.p_scans;
  List.iter
    (fun e ->
      Fmt.pf ppf "emit %s(%a)@," e.em_pred
        (Fmt.list ~sep:Fmt.comma (pp_cell p.p_slot_names))
        (Array.to_list e.em_cells))
    p.p_emits;
  Fmt.pf ppf "nulls/trigger: %d@]" p.p_nnulls
