(** The data-exchange execution engine.

    Executes a set of source-to-target tgds (discovered mappings) over a
    source instance by compiling each to a {!Plan.t} and evaluating the
    plans with hash-join probes over per-(relation, join-attribute)
    indexes, batched labelled-null allocation, and Skolem-term cells
    shared with the chase. Target key egds are enforced by a union-find
    pass over each keyed table, and after a substitution the plans are
    re-fired semi-naively — only through scan steps whose relation
    actually changed.

    The result is a universal solution for the mapping, homomorphically
    equivalent to the naive {!Smg_cq.Chase.exchange} output; with
    [~laconic:true] the tgds are normalised first and single-fact
    redundancy is swept afterwards ({!Laconic}), yielding a near-core
    instance directly. Source and target live in separate stores, so
    schemas sharing table names execute without renaming. *)

type report = {
  r_target : Smg_relational.Instance.t;  (** the target instance *)
  r_complete : bool;  (** false when the round budget was exhausted *)
  r_rounds : int;
  r_stats : (string * Obs.stats) list;
      (** per-tgd counters in plan order — immutable snapshots, safe to
          hold across (and aggregate over) concurrent executions *)
  r_egd_merges : int;  (** null bindings made by key egds *)
  r_sweep_dropped : int;  (** tuples folded by the laconic sweep *)
  r_seconds : float;  (** end-to-end wall-clock *)
  r_shards : Obs.shard_view;
      (** per-shard live/rot counters over the target stores plus the
          intern-pool size — the partitioning observability surface *)
}

val run :
  ?pool:Smg_parallel.Pool.t ->
  ?shards:int ->
  ?max_rounds:int ->
  ?laconic:bool ->
  source:Smg_relational.Schema.t ->
  target:Smg_relational.Schema.t ->
  mappings:Smg_cq.Dependency.tgd list ->
  Smg_relational.Instance.t ->
  (report, string) result
(** Execute the mappings over a source instance. [max_rounds] (default
    100) bounds egd/re-fire rounds; [laconic] (default off) enables the
    {!Laconic} preparation and sweep. [Error] on a key-egd
    constant/constant conflict or an ill-formed tgd (unknown predicate,
    arity mismatch, non-universal Skolem argument).

    With a [pool], each plan's initial pass fans its driving scan out
    across the pool's domains: workers enumerate join bindings against
    pre-built indexes (read-only) and pre-filter triggers already
    satisfied in the target snapshot; all inserting, null minting and
    Skolem interning happens on the calling domain while replaying the
    surviving bindings in deterministic chunk order. The output is
    homomorphically equivalent to the sequential run's for any domain
    count (null labels may differ). Egd rounds and semi-naive re-firing
    stay sequential.

    [shards] sets the hash-partition count of every store's membership
    tables (explicit argument > [SMG_SHARDS] env var > the pool's
    domain count > 1). The partitioning is invisible to the output:
    stores share one insertion-ordered arena, so firing order — and the
    materialized target — is identical at every shard count. *)

type outcome =
  | Complete of report
  | Budget_exhausted of Smg_robust.Budget.reason * report
      (** the budget ran out mid-execution; the report carries the
          target built so far (a sound prefix, [r_complete = false]) *)
  | Failed of string
      (** key-egd constant conflict or ill-formed tgd *)

val run_bounded :
  ?budget:Smg_robust.Budget.t ->
  ?fault:Smg_robust.Fault.t ->
  ?pool:Smg_parallel.Pool.t ->
  ?shards:int ->
  ?max_rounds:int ->
  ?laconic:bool ->
  source:Smg_relational.Schema.t ->
  target:Smg_relational.Schema.t ->
  mappings:Smg_cq.Dependency.tgd list ->
  Smg_relational.Instance.t ->
  outcome
(** {!run} under a resource budget: every scanned tuple ticks the
    budget and every minted labelled null burns a unit of fuel, so both
    runaway joins and null-generation blowups stop cleanly with
    [Budget_exhausted] instead of hanging. Without a budget this is
    {!run} with the result as an {!outcome}. In pooled runs each scan
    chunk receives an equal fuel share ({!Smg_robust.Budget.split} over
    a fixed chunk count, so accounting is independent of the domain
    count); a chunk exhausting its share still contributes the bindings
    it collected, and the target built when the budget runs out remains
    a sound prefix.

    [fault] consults the [Engine_step] injection point once per plan
    evaluation (initial pass and each semi-naive re-fire): an injected
    raise escapes to the caller (chaos supervision turns it into a
    diagnosed 500); an injected delay burns wall clock against the
    budget. *)

(** {1 Compile / execute split}

    A {!compiled} value is immutable plan data: the tgds lowered to
    {!Plan.t} (after the optional laconic preparation), plus the two
    schemas. Compiling is the parse/lower/order work a long-running
    service wants to pay once per scenario; executing allocates all
    mutable state (stores, counters, null labels) per call, so one
    [compiled] value may be executed by several domains concurrently. *)

type compiled = {
  c_source : Smg_relational.Schema.t;
  c_target : Smg_relational.Schema.t;
  c_plans : Plan.t list;
  c_delta : Plan.t list list;
      (** per plan (same order as [c_plans]), one reordered variant per
          lhs atom: variant [j] puts atom [j] at scan 0, so incremental
          maintenance can drive the join from a batch of tuples newly
          inserted into that atom's table instead of re-running the
          bulk plan's full join prefix. Empty lists under [laconic]. *)
  c_laconic : bool;
}

val compile :
  ?card:(string -> int) ->
  ?laconic:bool ->
  source:Smg_relational.Schema.t ->
  target:Smg_relational.Schema.t ->
  mappings:Smg_cq.Dependency.tgd list ->
  unit ->
  (compiled, string) result
(** Compile the mappings to executable plans. [card] gives per-table
    source cardinalities for the greedy join ordering (pass the
    cardinalities of a representative instance; omitted, the order is
    purely structural). [laconic] (default off) runs the {!Laconic}
    preparation and marks the compiled value so {!execute} applies the
    closing sweep. [Error] on an ill-formed tgd (unknown predicate,
    arity mismatch, non-universal Skolem argument). *)

val execute :
  ?budget:Smg_robust.Budget.t ->
  ?fault:Smg_robust.Fault.t ->
  ?pool:Smg_parallel.Pool.t ->
  ?shards:int ->
  ?max_rounds:int ->
  compiled ->
  Smg_relational.Instance.t ->
  outcome
(** Execute compiled plans over a source instance. Semantics are those
    of {!run_bounded} minus the compilation: without a [budget] the
    outcome is [Complete] or [Failed]; with one it may be
    [Budget_exhausted] carrying the sound prefix built so far. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Stores and trigger enumeration}

    The engine's mutable per-relation store and the compiled-plan scan
    loop, exposed for incremental maintenance (lib/delta): a maintainer
    owns its own stores across update batches and re-enumerates
    triggers seeded from each batch's delta, reusing exactly the
    hash-join evaluation the bulk path runs. *)

module Stores : sig
  type t
  (** A mutable tuple store with set semantics, lazily-built hash-join
      indexes, and O(1) membership. *)

  val of_tuples :
    ?shards:int -> header:string list -> Smg_relational.Value.t array list -> t
  (** Build a store over duplicate-free initial tuples. [shards] sets
      the membership partition count (default: [SMG_SHARDS] env var,
      else 1). *)

  val header : t -> string list

  val tuples : t -> Smg_relational.Value.t array list
  (** Current tuples in insertion order. *)

  val count : t -> int

  val rows : t -> int
  (** Arena rows ever appended, live and dead. Row ids are stable for a
      store's lifetime and new rows are numbered from here, so a
      maintainer can tell the rows a batch added by this watermark. *)

  val find_row : t -> int array -> int option
  (** The live row holding these interned cells. *)

  val insert : t -> int array -> int option
  (** Add interned cells unless already present; the new row id when
      inserted. *)

  val iter_live : t -> (int array -> unit) -> unit
  (** Live rows' cells (fresh arrays), in insertion order. *)

  val remove_many : t -> int array list -> (int array * int) list
  (** Remove a batch of interned tuples in O(batch), not O(store): each
      doomed tuple is unregistered from the membership set and
      tombstoned in place — both in the arena and in any built index
      bucket. Probes filter tombstones while rot exists, and rot past
      the live count triggers an amortized rebuild. Returns the tuples
      actually removed with their rows, in batch order (absent ones
      are skipped silently). *)

  val shard_view : ?intern_pool:bool -> t list -> Obs.shard_view
  (** Aggregate per-shard live/rot counters over a list of stores
      (which must share a shard count). [intern_pool:false] reports 0
      for the pool size instead of reading the global counter. *)
end

val prewarm : src:(string -> Stores.t) -> Plan.t -> unit
(** Build the hash indexes the plan's probing scans will use, so the
    first {!enumerate} after construction doesn't pay the O(store)
    index builds inside a latency-sensitive path. *)

type lowered
(** A compiled plan lowered to interned codes, with reusable scratch
    buffers: lower once per plan, then enumerate and emit from one
    domain at a time. *)

val lower : Plan.t -> lowered

type skmemo
(** A cache from (Skolem function, interned argument codes) to the
    interned term code. A miss falls back to [Chase.skolem_term], so
    terms — and their labelled nulls — are the ones every engine and
    the chase assign. *)

val skolem_memo : unit -> skmemo

val enumerate :
  src:(string -> Stores.t) ->
  ?budget:Smg_robust.Budget.t ->
  ?delta:int * int array list ->
  lowered ->
  Obs.tstats ->
  sink:(int array -> unit) ->
  unit
(** Enumerate every complete binding (trigger) of a lowered plan's
    scans over the stores named by [src], calling [sink] on its
    interned env. With [delta:(i, tuples)], scan step [i] iterates only
    the given interned tuples — the semi-naive restriction: a binding
    is produced only if its [i]-th atom comes from the delta. The env
    array passed to [sink] is reused between bindings; copy it if it
    must survive the callback. Every scanned tuple ticks the [budget]
    ({!Smg_robust.Budget.tick_exn}, so runaway joins raise
    [Budget.Exhausted] exactly as in bulk execution). *)

val emit_cells : skmemo -> lowered -> int -> int array -> int array
(** [emit_cells memo plan k env] is the interned tuple the plan's
    [k]-th emission produces for the env, Skolem cells resolved through
    [memo]. The array is a scratch buffer reused by the next call for
    the same emission. Raises [Invalid_argument] on a plan that mints
    anonymous nulls. *)

val resolve_shards : ?shards:int -> ?pool:Smg_parallel.Pool.t -> unit -> int
(** The membership partition count: [shards] if given (at least 1),
    else a positive [SMG_SHARDS] env var, else the pool's domain count,
    else 1. *)
