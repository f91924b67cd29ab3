(** A mutable map from ints to ints over flat int arrays (open
    addressing, linear probing): lookups and updates of present keys
    allocate nothing. The exchange engine's key-egd substitution, the
    laconic sweep's null counts and the exchange render's canonical null
    labels use it on their per-row paths. Keys must not be [min_int]. *)

type t

val create : int -> t
(** A table that holds this many keys without growing. *)

val length : t -> int
(** The number of keys bound. *)

val find : t -> int -> int -> int
(** [find t k default] is [k]'s value, or [default] when unbound. *)

val replace : t -> int -> int -> unit
(** Bind [k], replacing any previous value. *)
