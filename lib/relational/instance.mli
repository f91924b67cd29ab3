(** Database instances: named relations holding tuples of {!Value.t}.

    Tuples are positionally aligned with a column-name header. Instances
    are persistent maps; all updates return new instances. *)

type relation = {
  header : string list;
  tuples : Value.t array list;  (** each array has [List.length header] cells *)
}

type t

val empty : t
val of_list : (string * relation) list -> t
val relation : t -> string -> relation option

val relation_or_empty : t -> string -> header:string list -> relation
(** Like {!relation} but a missing table yields an empty relation with
    the given header. *)

val set : t -> string -> relation -> t
val names : t -> string list

val add_tuple : t -> string -> header:string list -> Value.t array -> t
(** Insert a tuple, creating the relation (with [header]) on first use;
    duplicate tuples are kept out (set semantics).
    @raise Invalid_argument on arity mismatch with the existing header. *)

val cardinality : t -> string -> int
val total_tuples : t -> int

val mem_tuple : relation -> Value.t array -> bool

val tuple_key : Value.t array -> string
(** The whole tuple serialized: each cell's {!Value.to_string},
    NUL-separated. Equal tuples get equal keys, so it serves as a
    hash key for set semantics and as a stable digest input. *)

val equal : t -> t -> bool
(** Same non-empty relations with the same tuple sets (headers are not
    compared; tuples are compared as sets, which relations kept through
    {!add_tuple} already are). *)

val project_tuple : relation -> Value.t array -> string list -> Value.t array
(** Reorder/select cells of a tuple of this relation by column names.
    @raise Invalid_argument on an unknown column. *)

val check_keys : Schema.t -> t -> (string * Value.t array * Value.t array) list
(** Key violations: [(table, t1, t2)] pairs agreeing on the key but
    differing elsewhere. *)

val check_rics : Schema.t -> t -> (string * Value.t array) list
(** RIC violations: [(ric_name, dangling_tuple)]. *)

val pp : Format.formatter -> t -> unit
val pp_relation : Format.formatter -> relation -> unit
