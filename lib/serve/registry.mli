(** The scenario registry: parsed, lowered, discovered, and compiled
    artifacts cached per scenario, keyed by content hash.

    [PUT /scenarios/:name] parses the DSL once; every later request
    against that scenario reuses the cached CM graphs, lowered schemas,
    discovery output, and the exchange engine's compiled tgd plans
    ({!Smg_exchange.Engine.compiled}). Entries are independent — two
    requests against different scenarios never contend — and each
    entry's caches are single-flight: a per-entry mutex makes the first
    request compute while concurrent duplicates wait and then hit.

    The seven built-in evaluation domains (dblp, mondial, amalgam,
    3sdb, ut, hotel, network) can be preloaded so the service mirrors
    [mapdisc exchange --scenario NAME] without a PUT. *)

type kind = Dsl of Smg_dsl.Ast.t | Builtin of Smg_eval.Scenario.t

type entry = {
  en_name : string;
  en_hash : string;  (** MD5 of the DSL source, or ["builtin:<name>"] *)
  en_kind : kind;
  en_source : Smg_core.Discover.side;
  en_target : Smg_core.Discover.side;
  en_corrs : Smg_cq.Mapping.corr list;
}

type t

val create :
  ?fault:Smg_robust.Fault.t ->
  ?retry:Smg_robust.Retry.policy ->
  ?on_retry:(tries:int -> ok:bool -> unit) ->
  ?shards:int ->
  unit ->
  t
(** [fault] wires the registry's injection points ([Parse] before a
    PUT's parse, [Registry_store] around mutations, [Plan_compile]
    around plan compilation, and [Engine_step] forwarded into
    {!Smg_exchange.Engine.execute}). Store and compile faults are
    transient: they are retried under [retry] (default
    {!Smg_robust.Retry.default}), with [on_retry] reporting each
    retried operation's total tries and final outcome — the server's
    metrics hook. A parse fault, or a transient one that survives every
    attempt, raises [Smg_robust.Fault.Injected] out of the mutating
    call for the caller's supervisor to turn into a diagnosed 500.

    [shards] is forwarded to every {!Smg_exchange.Engine.execute} and
    {!Smg_delta.Maintain.init} as the stores' hash-partition count
    (omitted: [SMG_SHARDS] env var, else the pool's domain count). It
    never changes response bytes — partitioning is invisible to the
    materialized target. *)

val shard_view : t -> Smg_exchange.Obs.shard_view option
(** Per-shard live/rot counters and the intern-pool size from the most
    recent exchange or delta execution — the [GET /metrics]
    partitioning surface. [None] until something has executed. *)

val sides_of_doc :
  Smg_dsl.Ast.t ->
  (Smg_core.Discover.side * Smg_core.Discover.side, string) result
(** Lower a parsed scenario document to its two discovery sides
    (schema + compiled CM + validated s-trees): the [load] step the CLI
    and the registry share. [Error] when the document does not declare
    exactly two schemas and two CMs, or a side fails validation. *)

val scenario_tgds : Smg_eval.Scenario.t -> Smg_cq.Dependency.tgd list
(** The executable tgds of a built-in domain: the best discovered
    mapping of every benchmark case, labelled by case name, outer
    variants expanded — exactly what [mapdisc exchange --scenario]
    executes. Deterministic. *)

val put :
  t -> name:string -> text:string -> (entry * bool, Smg_robust.Diag.t) result
(** Parse and register a scenario. [true] in the result means the
    registry already held this exact content hash under this name and
    every cached artifact was kept (a cache hit). A same-name PUT with
    different content replaces the entry and drops its caches. *)

val find : t -> string -> entry option
val names : t -> string list
val remove : t -> string -> bool
val preload_builtins : t -> unit
val size : t -> int

type hit = [ `Hit | `Miss ]

val discover :
  t ->
  ?budget:Smg_robust.Budget.t ->
  meth:[ `Semantic | `Ric | `Both ] ->
  dedup:bool ->
  entry ->
  Render.discover_output * hit
(** The discovery document for an entry, cached per (method, dedup)
    variant. The budget only applies to a cold run; a hit returns the
    cached bytes untouched. *)

type exchange_result =
  | Ex_ok of string * hit
  | Ex_partial of Smg_robust.Budget.reason * string
      (** budget exhausted mid-execution: the body is the same document
          shape with [complete: false], the built prefix, and a
          degradation diagnostic *)
  | Ex_bad of string  (** client-side: no data, RIC violations *)
  | Ex_failed of string  (** engine failure (key-egd conflict, …) *)

val exchange :
  t ->
  ?budget:Smg_robust.Budget.t ->
  ?size:int ->
  ?seed:int ->
  ?laconic:bool ->
  entry ->
  exchange_result
(** Execute the entry's mappings. Discovery of the executable tgds, the
    generated witness instance (when the scenario has no data blocks),
    and the compiled plans are all cached; execution itself runs fresh
    per request under the given budget. [hit] reports whether the
    compiled plan was served from the cache. Defaults: [size] 1000,
    [seed] 42, [laconic] true — the CLI's. *)

val entry_tgds : t -> entry -> (Smg_cq.Dependency.tgd list, string) result
(** The entry's executable tgds (cached; discovers on first use). *)

type delta_result =
  | Dl_ok of string
      (** the maintained target as an exchange document, with the
          batch sequence number and per-batch counters in the head *)
  | Dl_bad of string  (** client-side: no data, RIC violations *)
  | Dl_failed of string
      (** key-egd conflict or engine failure; the maintained state is
          dropped and the next delta re-initializes from the last
          successfully maintained instance *)

val counters_json : Smg_delta.Maintain.counters -> string
(** The per-batch counters as a JSON object — the [delta] head field,
    shared with the CLI's [--apply-delta] output so the bytes match a
    served response. *)

val delta :
  t -> ?size:int -> ?seed:int -> entry -> Smg_delta.Batch.t -> delta_result
(** Apply a batch of source inserts/deletes incrementally
    ({!Smg_delta.Maintain}). The maintained state is cached per
    instance key — the same [size:seed] (or data-block) key as the
    cached instances — created on first use by a bulk init over the
    cached instance. On success the cached instance is replaced by the
    maintained source, so later exchange requests against the same key
    see the delta'd data. An empty batch is a consistent read of the
    maintained document. *)

val info_json : t -> entry -> string
(** Registry-entry summary: name, hash, kind, table/corr counts, and
    how many cached artifacts (discovery variants, compiled plans,
    witness instances) the entry holds. *)
