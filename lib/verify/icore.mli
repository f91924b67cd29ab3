(** Core universal solutions: minimize a chase result by folding
    labelled nulls.

    A chase ({!Smg_cq.Chase.exchange}) result is a universal solution,
    but usually not a minimal one — different tgd firings introduce
    nulls that a homomorphism could identify with existing values. The
    core is the smallest universal solution (Fagin–Kolaitis–Popa), and
    the laconic-mappings line of work motivates presenting exactly it.

    [core] folds greedily: while some labelled null [n] admits a proper
    endomorphism — a homomorphism of the instance into the sub-instance
    of tuples not mentioning [n], identity on non-null values — replace
    the instance by the image and repeat. Each fold strictly shrinks the
    instance, so this terminates; when no null can be folded away the
    instance is its own core. *)

val facts : Smg_relational.Instance.t -> (string * Smg_relational.Value.t array) array
(** Every tuple of the instance, tagged with its relation name. *)

val flexible : string * Smg_relational.Value.t array -> Smg_cq.Atom.t
(** A tuple as an atom, labelled nulls as variables and every other
    value as a constant (the "flexible" reading used by the fold
    search). *)

val frozen : string * Smg_relational.Value.t array -> Smg_cq.Atom.t
(** A tuple as a ground atom: every value, labelled nulls included, a
    constant (the "rigid" reading). *)

type components = {
  root : int -> int;  (** a null's component, named by its root null *)
  members : (int, int list) Hashtbl.t;
      (** root -> indices of the component's tuples, descending *)
}

val components : Smg_relational.Value.t array array -> components
(** Group tuples by null-connected component: two tuples are connected
    when they share a labelled null. Tuples without nulls belong to no
    component. *)

val core : Smg_relational.Instance.t -> Smg_relational.Instance.t
(** The core of the instance. Idempotent: [core (core i)] adds nothing. *)

val is_core : Smg_relational.Instance.t -> bool
(** No labelled null can be folded away. *)

val of_outcome : Smg_cq.Chase.outcome -> Smg_cq.Chase.outcome
(** Map {!core} through [Saturated]/[Bounded]; [Failed] passes through. *)
