(** The machine-readable JSON encodings shared by the CLI ([--json]
    flags) and the HTTP service.

    Byte-identity is the contract: [mapdisc discover FILE --json]
    prints exactly {!discover_output.dj_json}, and a served
    [POST /scenarios/:name/discover] returns the same string, so a
    response body can be diffed against CLI output. Exchange bodies
    renumber labelled nulls canonically (first-occurrence order over
    name-sorted tables), which makes them stable across processes and
    across warm/cold cache paths even though raw null labels are
    process-global. *)

val json_str : string -> string
(** JSON string literal with escaping, quotes included. *)

val json_list : ('a -> string) -> 'a list -> string

val json_diag : Smg_robust.Diag.t -> string
(** The [--diagnostics] object shape:
    [{"severity": .., "stage": .., "subject": .., "message": ..}] —
    also the shape carried by 4xx/5xx response bodies. *)

val json_candidate :
  Smg_relational.Schema.t ->
  Smg_relational.Schema.t ->
  int ->
  Smg_cq.Mapping.t ->
  string
(** One ranked discovery candidate (rank, score, tgd, executable tgds,
    covered correspondences, provenance, source algebra). *)

type discover_output = {
  dj_json : string;  (** the full JSON document, newline-terminated *)
  dj_diags : Smg_robust.Diag.t list;
  dj_exact : bool;
  dj_count : int;  (** candidates over both methods *)
}

val discover_json :
  ?budget:Smg_robust.Budget.t ->
  ?pool:Smg_parallel.Pool.t ->
  ?meth:[ `Semantic | `Ric | `Both ] ->
  ?dedup:bool ->
  file:string ->
  source:Smg_core.Discover.side ->
  target:Smg_core.Discover.side ->
  corrs:Smg_cq.Mapping.corr list ->
  unit ->
  discover_output
(** Run lint + bounded discovery (and the RIC baseline when [meth] is
    [`Ric]/[`Both], default [`Both]) and render the CLI's [--json]
    document. [dedup] (default false) collapses logically equivalent
    candidates first, as [--dedup] does. *)

val label_by_rank : Smg_cq.Mapping.t list -> Smg_cq.Mapping.t list
(** Suffix each candidate name with its rank ([name#1], [name#2], …) —
    the labelling both CLI dedup reporting and the service use. *)

val exchange_json :
  head:(string * string) list ->
  ?exhausted:Smg_robust.Budget.reason ->
  ?diags:Smg_robust.Diag.t list ->
  laconic:bool ->
  Smg_exchange.Engine.report ->
  string
(** The exchange [--json] document. [head] is rendered first, verbatim,
    as [("key", already-encoded-value)] pairs — the CLI puts
    [("file", …)] or [("scenario"/"size"/"seed", …)] there. Timings are
    deliberately excluded so the document is deterministic; labelled
    nulls are canonically renumbered. *)
