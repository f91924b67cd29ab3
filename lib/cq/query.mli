(** Conjunctive queries: containment, equivalence, minimization,
    and evaluation over relational instances.

    A query [q(head) :- body] has distinguished (head) terms and a body
    of atoms. Containment and equivalence are the classical
    homomorphism-based notions (Chandra–Merlin). *)

type t = { name : string; head : Atom.term list; body : Atom.t list }

val make : ?name:string -> head:Atom.term list -> Atom.t list -> t
val head_vars : t -> string list
val body_vars : t -> string list

val rename_apart : suffix:string -> t -> t
(** Rename every variable by appending [suffix]. *)

val homomorphism : from_:t -> to_:t -> Atom.Subst.t option
(** A homomorphism [h] from [from_]'s body into [to_]'s body (variables
    of [to_] are rigid) with [h(from_.head) = to_.head] positionally;
    [None] if heads have different arities or no homomorphism exists. *)

val contained_in : t -> t -> bool
(** [contained_in q1 q2] is true iff the answers of [q1] are a subset of
    the answers of [q2] on every instance. *)

val equivalent : t -> t -> bool
val minimize : t -> t
(** The core of the query: a minimal equivalent subquery. *)

val eval :
  Smg_relational.Schema.t ->
  Smg_relational.Instance.t ->
  t ->
  Smg_relational.Instance.relation
(** Evaluate the query; body predicates are table names with positional
    arguments in the table's column order. The output header uses the
    head variable names ([ansN] for constant head positions). *)

val ground_matches :
  Smg_relational.Instance.t -> Atom.t list -> (string * Smg_relational.Value.t) list list
(** All assignments of body variables to instance values satisfying the
    atom list (the workhorse for {!eval} and the chase). *)

val pp : Format.formatter -> t -> unit

val saturate :
  ?max_rounds:int -> schema:Smg_relational.Schema.t -> t -> t
(** Extend the body with the atoms implied by the schema's RICs (a
    bounded symbolic chase; default 4 rounds, enough for the chains in
    practice — cyclic RICs are cut off by the bound). *)

val contained_under :
  schema:Smg_relational.Schema.t -> t -> t -> bool
(** Containment *under the schema's referential constraints*:
    [contained_under ~schema q1 q2] holds iff [q2] maps into the
    saturation of [q1] (sound; complete up to the chase bound). *)
