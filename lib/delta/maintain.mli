(** Incremental maintenance of a materialized exchange target.

    A {!state} holds a source instance (in engine stores), the
    canonical pre-egd target — the semi-oblivious-chase result over
    {!Skolemize}d plans, a deterministic function of the source — with
    a support count per fact, a derivation index from source tuples to
    the triggers they participate in, and the key-egd substitution over
    the canonical facts. {!apply} maintains all of it under a batch of
    source inserts and deletes:

    - inserts re-fire each compiled plan semi-naively, seeded from the
      batch ({!Smg_exchange.Engine.enumerate} with the delta
      restriction), recording one derivation per new trigger;
    - deletes retract by counting: a derivation dies with any of its
      source tuples, each death decrements the support of the facts it
      produced, and a fact (and any labelled null left without a fact)
      vanishes when its support reaches zero;
    - each keyed target table keeps an index from a live fact's
      resolved key to the group's first fact, so the key-egd check of
      a batch probes only the facts the batch added — O(batch); a probe
      that binds a null escalates to full passes over the keyed
      tables, which rebuild the indexes. When a retraction touches a
      keyed table under a non-empty substitution, rolled-back merges
      are ambiguous, so the substitution is recomputed from the
      canonical keyed tables — and if a merge ever binds a null that
      occurs in the source itself, the whole state is rebuilt from the
      resolved source, the engine's own semantics.

    All bookkeeping — facts, derivations, the source-to-derivation
    index, null occurrences, egd groups — is keyed on interned codes
    ({!Smg_relational.Intern}); values are decoded only when the target
    or source is materialized.

    The maintained target is homomorphically equivalent to a full
    re-chase of the current source, and its materialization order is a
    deterministic function of the operation history, so journal replay
    reproduces rendered documents byte for byte. *)

type counters = {
  mc_src_inserted : int;  (** source tuples actually added *)
  mc_src_deleted : int;  (** source tuples actually removed *)
  mc_triggers_seen : int;  (** bindings enumerated from the delta *)
  mc_triggers_fired : int;  (** new derivations recorded *)
  mc_facts_added : int;  (** canonical facts created *)
  mc_facts_retracted : int;  (** canonical facts whose support vanished *)
  mc_nulls_minted : int;  (** labelled nulls first seen *)
  mc_nulls_collected : int;  (** nulls no longer occurring in any fact *)
  mc_egd_merges : int;  (** substitution bindings added *)
  mc_egd_rebuilds : int;  (** substitution recomputations (retractions) *)
  mc_full_rebuilds : int;  (** whole-state rebuilds (source-null merge) *)
  mc_egd_checked : int;
      (** facts the key-egd layer examined: the batch's new keyed facts
          on the incremental path, every live keyed fact per full pass *)
  mc_seconds : float;  (** wall-clock inside {!apply} *)
}

val zero_counters : counters
val add_counters : counters -> counters -> counters

type state

val prepare :
  ?card:(string -> int) ->
  source:Smg_relational.Schema.t ->
  target:Smg_relational.Schema.t ->
  mappings:Smg_cq.Dependency.tgd list ->
  unit ->
  (Smg_exchange.Engine.compiled, string) result
(** Skolemize the mappings and compile them (never laconic: the sweep
    would fold facts out from under the support counts). The compiled
    value also executes in bulk via {!Smg_exchange.Engine.execute},
    producing the same canonical facts — one plan, both paths. *)

val init :
  ?shards:int ->
  Smg_exchange.Engine.compiled ->
  Smg_relational.Instance.t ->
  (state, string) result
(** Build the maintained state by a full (bulk) derivation-recording
    pass. [shards] sets the hash-partition count of the maintained
    source stores' membership tables (resolved by
    {!Smg_exchange.Engine.resolve_shards}: default [SMG_SHARDS] env var,
    else 1); it is invisible to the maintained output. [Error] on a
    key-egd constant/constant conflict, on laconic plans, or on plans
    that still mint anonymous nulls (i.e. the compiled value did not
    come from {!prepare}). *)

val apply :
  ?fault:Smg_robust.Fault.t ->
  state ->
  Batch.t ->
  (state * counters, string) result
(** Apply one batch, mutating and returning the same state. [Error] on
    a key-egd conflict or an op naming an unknown table / wrong arity
    — after which the state is poisoned and refuses further batches
    (the caller should drop it and re-init). [fault] consults the
    [Delta_apply] injection point once, before any mutation. *)

val source : state -> Smg_relational.Instance.t
(** The current maintained source instance. *)

val target : state -> Smg_relational.Instance.t
(** The materialized target: canonical facts resolved through the egd
    substitution, deduplicated, in derivation order. *)

val report : state -> Smg_exchange.Engine.report
(** The maintained target wrapped as an engine report (cumulative
    per-plan counters, egd merges, batches applied as rounds) — feed it
    to the same renderers as a bulk execution. *)

val totals : state -> counters
(** Counters accumulated since {!init}. *)

val batches : state -> int
(** Batches applied so far. *)

val live_stats : state -> int * int * int
(** [(facts, derivations, live nulls)] currently tracked. *)
