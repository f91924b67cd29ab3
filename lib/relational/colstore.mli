(** Flat columnar tuple storage over interned int codes (see {!Intern}),
    hash-partitioned into disjoint membership shards.

    One value = one relation: an insertion-ordered row-major int arena
    with per-row liveness bytes, [nshards] open-addressing membership
    tables (a tuple's owning shard is [hash mod nshards]), and optional
    column-subset hash indexes. Iteration order is the arena order and
    is independent of the shard count.

    A column index is a chained hash table over flat int arrays: a
    power-of-two bucket-head array, at most half loaded by the live
    rows, and a per-row link to the next older row of the same bucket.
    A bucket holds every row whose probed cells hash into it, so a walk
    may visit rows whose probed cells differ from the query: callers
    must re-verify equality positions (and liveness, when {!dead} is
    non-zero) on every candidate. *)

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

val spread : int -> int
(** Fold a hash's high bits into its low bits. Apply it before masking
    a hash of interned codes to a power-of-two table: the FNV product's
    low bits depend only on the cells' low bits. *)

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
    buckets keep the row until the next relink ({!prune_indexes}, or an
    insert that grows the index) — probes must filter. *)

val iter_live : t -> (int -> unit) -> unit
val fold_live : t -> ('a -> int -> 'a) -> 'a -> 'a

val ensure_index : t -> int array -> index
(** Index on a column subset (positions in probe order), built over live
    rows with its bucket-head array sized from {!count}, and maintained
    by {!insert}: a new row links in place at its bucket's head, and
    past half load the live rows relink in arena order into a larger
    head array. *)

val no_index : index
(** Stands for "no index": never built or linked (a walk of it visits
    nothing), compared by physical equality. *)

val find_index : t -> int array -> index
(** The index already built on these columns, or {!no_index}. Allocates
    nothing, so a probe may call it per trigger. *)

val first : index -> int array -> int
(** [first ix cells] starts an in-place walk over the candidates for the
    query [cells] (the index's columns, in probe order): the newest row
    of the bucket they hash into, or [-1]. Continue with {!next}. The
    walk visits a superset of the exact matches, newest first, plus
    rows tombstoned since the last relink: re-verify every candidate.
    Do not mutate the store during a walk. *)

val next : index -> int -> int
(** [next ix row] is the next older candidate after [row] in its
    bucket, or [-1] at the end of the walk. *)

val has_indexes : t -> bool
val index_rot : t -> int
val prune_indexes : t -> unit
val maybe_prune : t -> unit
(** Rebuild index buckets once tombstones dominate (amortized O(1)). *)

val drop_indexes : t -> unit
