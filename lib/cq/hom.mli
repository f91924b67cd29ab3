(** The CQ homomorphism engine: the one search beneath containment,
    equivalence and minimization ({!Query}), mapping implication, and
    instance equivalence and cores ([Smg_verify]).

    It finds homomorphisms of a list of atoms (the "flexible" side, whose
    variables may bind) into a list of facts (the "rigid" side, whose
    terms — variables included — behave as constants).

    The search is fail-first: at every node it extends the pending atom
    with the fewest consistent images, ties broken toward fewer unbound
    variables and then toward the earlier atom, and a pending atom with
    no image prunes the branch. Core folding needs this rule: on null
    components whose first atoms have many images and whose last has
    one, expanding atoms left to right is some eighty times slower.
    Images are counted in place, and only until an atom cannot beat the
    best count so far. *)

type index
(** The rigid side, grouped by predicate. *)

val index : Atom.t list -> index

val all :
  ?init:Atom.Subst.t ->
  ?limit:int ->
  ?avoid:Atom.term ->
  index ->
  Atom.t list ->
  Atom.Subst.t list
(** All homomorphisms (the first [limit], when given) of the atom list
    into the indexed facts, each extending the pre-bindings of [init].
    With [avoid], no variable the search binds may map to that term. *)

val find :
  ?init:Atom.Subst.t ->
  ?avoid:Atom.term ->
  index ->
  Atom.t list ->
  Atom.Subst.t option
(** The first homomorphism of {!all}, if any. *)

val holds : ?init:Atom.Subst.t -> index -> Atom.t list -> bool
