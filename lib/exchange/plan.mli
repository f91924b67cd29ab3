(** Compilation of s-t tgds into relational execution plans.

    A plan is a left-deep sequence of scan/probe steps over the source
    instance (each step after the first probes a hash index on the
    positions equated with already-bound variables or constants), a set
    of emission templates for the right-hand side (cells drawn from
    bound slots, constants, trigger-local labelled nulls, or Skolem
    terms computed from bound slots), and satisfaction-check templates
    implementing the restricted-chase "is the rhs already satisfied"
    test with existentials as wildcards, ordered greedily by how many
    of their positions are statically known, so a template with an
    empty probe key runs after the templates that bind its
    existentials.

    Variables are compiled to integer slots; the engine lowers a plan
    to interned codes and binds each trigger into one reused int array
    environment. *)

type binding = Slot of int | Const of Smg_relational.Value.t

type scan = {
  sc_pred : string;
  sc_eqs : (int * binding) list;
  sc_selfeqs : (int * int) list;
  sc_binds : (int * int) list;
}

type sk_arg =
  | ASlot of int
  | AConst of Smg_relational.Value.t
  | AApp of string * sk_arg list  (** nested Skolem application *)

type cell =
  | CSlot of int
  | CConst of Smg_relational.Value.t
  | CNull of int
  | CSkolem of string * sk_arg list

type emit = { em_pred : string; em_cells : cell array }

type check_cell =
  | KSlot of int
  | KConst of Smg_relational.Value.t
  | KEx of int  (** plain existential: a wildcard of the check *)
  | KSkolem of string * sk_arg list
      (** Skolem-named existential: its value is determined by the
          trigger's bindings and is computed, never wildcarded *)

type check = {
  ck_pred : string;
  ck_cells : check_cell array;
  ck_probe : int list;
}

type t = {
  p_name : string;
  p_tgd : Smg_cq.Dependency.tgd;
  p_nslots : int;
  p_scans : scan list;
  p_emits : emit list;
  p_checks : check list;
  p_nnulls : int;
  p_nex : int;
  p_slot_names : string array;
}

val compile :
  ?card:(string -> int) ->
  ?lead:int ->
  source:Smg_relational.Schema.t ->
  target:Smg_relational.Schema.t ->
  Smg_cq.Dependency.tgd ->
  t
(** Compile a tgd whose lhs predicates are [source] tables and whose
    rhs predicates are [target] tables. [card] gives per-table
    cardinalities for the greedy join ordering (most-selective-first);
    without it the order is purely structural. [lead] forces the lhs
    atom at that index (in the tgd's own atom order) to become scan 0,
    with the rest ordered greedily around it — how the incremental
    maintainer gets one plan variant per atom, each driven by the
    tuples newly inserted into that atom's table.
    @raise Invalid_argument on unknown predicates, arity mismatches, or
    a Skolem argument that is not universally quantified. *)

val pp : Format.formatter -> t -> unit
(** EXPLAIN-style rendering of the scan order, probes, and emissions. *)
