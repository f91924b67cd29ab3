(** Observability: per-tgd execution counters and timing. Every
    duration here is measured on {!Smg_robust.Clock} (CLOCK_MONOTONIC);
    time a thunk with {!Smg_robust.Clock.time}.

    The mutable {!tstats} accumulator is strictly per-run scratch state:
    the engine allocates a fresh one per plan per execution and never
    shares it — reports expose only the immutable {!stats} snapshot, so
    two requests executing the same cached plan concurrently (the
    [lib/serve] case) cannot corrupt each other's counters. *)

type tstats = {
  mutable st_scanned : int;  (** tuples read by the driving scan *)
  mutable st_probes : int;  (** hash-index probes issued *)
  mutable st_hits : int;  (** probes that found at least one tuple *)
  mutable st_misses : int;  (** probes that found none *)
  mutable st_checks : int;  (** satisfaction checks run (triggers) *)
  mutable st_satisfied : int;  (** triggers already satisfied *)
  mutable st_emitted : int;  (** target tuples actually inserted *)
  mutable st_nulls : int;  (** labelled nulls minted *)
  mutable st_seconds : float;  (** seconds spent in this plan *)
}

val fresh_tstats : unit -> tstats
val pp_tstats : Format.formatter -> tstats -> unit

(** Immutable per-run counter snapshot — what reports carry. *)
type stats = {
  n_scanned : int;
  n_probes : int;
  n_hits : int;
  n_misses : int;
  n_checks : int;
  n_satisfied : int;
  n_emitted : int;
  n_nulls : int;
  n_seconds : float;
}

val snapshot : tstats -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Shard and intern observability: live target tuples and cumulative
    tombstones per membership shard of the engine's partitioned stores
    (summed over the target relations), plus the global intern-pool
    size at snapshot time. Carried by engine reports, rendered in the
    `mapdisc exchange` summary and in [GET /metrics]. *)
type shard_view = {
  sv_shards : int;
  sv_tuples : int array;  (** live target tuples owned by each shard *)
  sv_rot : int array;  (** cumulative removals routed through each shard *)
  sv_intern_pool : int;  (** distinct constants interned, process-global *)
}

val pp_shard_view : Format.formatter -> shard_view -> unit
