(** Instance-level witnesses: empirical confirmation that a discovered
    mapping and the benchmark mapping produce the same data.

    Symbolic equivalence ({!Smg_cq.Mapping.same_under}) is checked up to
    a chase bound; this module complements it by *executing* both
    mappings' source queries over a synthesized source instance that
    satisfies the schema's keys and RICs, and comparing the answer sets.
    Disagreement on a witness instance is definitive evidence that two
    mappings are different; agreement on generated instances is strong
    (not conclusive) evidence they coincide. *)

val populate :
  ?rows_per_table:int ->
  ?seed:int ->
  Smg_relational.Schema.t ->
  Smg_relational.Instance.t
(** Generate a ground instance that satisfies the schema's keys and
    RICs, with exactly [rows_per_table] rows in every table. Row [i]
    of a table holds row-unique key cells and pooled constants
    ([c0]…[c6], so joins have matches) elsewhere. Then each RIC
    overwrites its from-cells in row [i] with the to-cells of parent
    row [(i + offset) mod rows_per_table], the offset seeded per RIC,
    in one pass: a RIC runs after every RIC that writes the cells it
    copies. Because every table has the same number of rows, the
    rotation is a bijection, so keys stay unique, RIC cycles close
    without new rows and no cell is a labelled null. The result is a
    deterministic function of [seed] (default 42). *)

val populate_cached :
  ?rows_per_table:int ->
  ?seed:int ->
  Smg_relational.Schema.t ->
  Smg_relational.Instance.t
(** {!populate}, memoized process-wide by (schema digest, rows, seed)
    under a mutex — the CLI witness path and the HTTP registry share
    one generated instance per key instead of rebuilding it every
    invocation. Callers must not mutate the result. *)

type verdict = {
  w_case : string;
  w_agree : bool;       (** discovered answers = benchmark answers *)
  w_discovered : int;   (** answer-set size of the discovered mapping *)
  w_benchmark : int;
}

val check_case :
  ?rows_per_table:int ->
  ?seed:int ->
  Scenario.t ->
  Scenario.case ->
  verdict option
(** Execute the *best hit* among the semantic method's candidates (the
    one matching the benchmark) and the benchmark itself over a
    generated source instance; [None] when the method produced no hit
    for this case. *)

val check_scenario : ?seed:int -> Scenario.t -> verdict list
val pp_verdict : Format.formatter -> verdict -> unit
