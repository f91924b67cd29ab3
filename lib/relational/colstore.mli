(** Flat columnar tuple storage over interned int codes (see {!Intern}),
    hash-partitioned into disjoint membership shards.

    One value = one relation: an insertion-ordered row-major int arena
    with per-row liveness bytes, [nshards] open-addressing membership
    tables (a tuple's owning shard is [hash mod nshards]), and optional
    column-subset hash indexes. Iteration order is the arena order and
    is independent of the shard count.

    Index buckets are keyed by the {e hash} of the probed cells, so a
    bucket may contain rows whose probed cells differ from the query:
    callers must re-verify equality positions (and liveness, when
    {!dead} is non-zero) on every candidate. *)

type t

type index

val create : ?tracked:bool -> shards:int -> arity:int -> int -> t
(** [create ~shards ~arity hint] makes an empty store sized for [hint]
    rows. [~tracked:false] skips membership tables entirely (for trusted
    duplicate-free source relations): {!insert}/{!remove}/{!find_row}
    are unavailable and {!mem} degrades to a scan. *)

val of_rows : ?tracked:bool -> shards:int -> arity:int -> int array list -> t
(** Build from rows in insertion order. Tracked stores drop duplicates. *)

val of_flat : shards:int -> arity:int -> rows:int -> int array -> t
(** Adopt a pre-coded flat row-major arena of [rows] rows (stride
    [max 1 arity]) without copying — the bulk-load path fed by
    {!Smg_relational.Intern.code_rows}. Untracked, rows trusted
    duplicate-free; the array must hold at least [16 * max 1 arity]
    cells and is owned by the store afterwards. *)

val hash_cells : int array -> int
(** The non-negative FNV-style hash membership and indexes use for a
    tuple of interned cells. *)

val arity : t -> int
val nshards : t -> int
val count : t -> int
(** Live rows. *)

val dead : t -> int
(** Tombstoned rows still occupying the arena. *)

val rows : t -> int
(** Total arena rows, live and dead. Row ids range over [0 .. rows-1]. *)

val tracked : t -> bool

val data : t -> int array
(** The raw arena; cell [j] of row [r] is [data.(r * arity + j)]. The
    array is replaced on growth — do not cache across inserts. *)

val is_live : t -> int -> bool
val get : t -> int -> int -> int
val row_cells : t -> int -> int array

val shard_live : t -> int array
(** Live tuples owned by each shard. All zeros on untracked stores. *)

val shard_rot : t -> int array
(** Cumulative removals routed through each shard. *)

val insert : t -> int array -> int option
(** [insert t cells] adds the tuple unless already present; returns the
    new row id when inserted. The cell array is copied. *)

val mem : t -> int array -> bool
val find_row : t -> int array -> int option

val remove : t -> int array -> int option
(** Tombstone the tuple in place; returns its row id when found. Index
    buckets keep the row until {!prune_indexes} — probes must filter. *)

val iter_live : t -> (int -> unit) -> unit
val fold_live : t -> ('a -> int -> 'a) -> 'a -> 'a

val ensure_index : t -> int array -> index
(** Index on a column subset (positions in probe order), built over live
    rows and maintained by {!insert}. *)

val find_index : t -> int array -> index option

val probe : index -> int array -> int list
(** Candidate rows whose indexed cells {e hash} like the query cells,
    newest first. Superset of the exact matches — re-verify. *)

val has_indexes : t -> bool
val index_rot : t -> int
val prune_indexes : t -> unit
val maybe_prune : t -> unit
(** Rebuild index buckets once tombstones dominate (amortized O(1)). *)

val drop_indexes : t -> unit
