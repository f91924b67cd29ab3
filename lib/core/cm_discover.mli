(** CM-to-CM mapping discovery — the related problem the paper's §6
    plans as future work: given two conceptual models (no relational
    schemas) and correspondences between class *attributes*, find pairs
    of semantically similar conceptual subgraphs and return them as
    conjunctive queries over the CM predicates.

    The machinery is the relational algorithm's middle, through the
    rules in {!Csg}: lift correspondences to marked class nodes,
    connect them with minimal functional Steiner trees (or
    minimally-lossy non-functional paths for many-many connections),
    filter by disjointness consistency, cardinality-shape compatibility
    and [partOf] category, and encode the surviving CSG pairs over CM
    predicates. Without tables there is no pre-selection and no LAV
    rewriting. *)

type corr = {
  cc_src : string * string;  (** (class, attribute) in the source CM *)
  cc_tgt : string * string;
}

val corr : src:string * string -> tgt:string * string -> corr

type result = {
  src_query : Smg_cq.Query.t;  (** over source CM predicates *)
  tgt_query : Smg_cq.Query.t;
  covered : corr list;
  score : float;
}

val discover :
  source:Smg_cm.Cml.t ->
  target:Smg_cm.Cml.t ->
  corrs:corr list ->
  unit ->
  result list
(** Ranked CSG pairs, best first: at most 20, connected by paths of at
    most 8 edges, a [partOf] mismatch rejecting the pair.
    @raise Invalid_argument when a correspondence references an unknown
    class or an attribute not declared on the class or an ancestor. *)

val pp_result : Format.formatter -> result -> unit
