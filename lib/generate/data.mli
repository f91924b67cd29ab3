(** Seeded witness data that satisfies a schema's keys and RICs by
    construction, at 10²–10⁶-tuple scale.

    {!Smg_eval.Witness.populate} gives every table the same row count
    and rotates parent rows into each reference. This module instead
    walks tables in reverse topological order of the (acyclic) RIC
    graph and builds each relation as a plain list:

    - foreign-key column groups that overlap the primary key draw
      *distinct* combinations of already-materialized parent key tuples
      (mixed-radix enumeration with a seeded offset), so keys are unique
      and the RICs hold with zero repair rounds;
    - key columns no RIC covers get injective [k_<table>_<i>] values;
    - non-key foreign keys sample a random parent tuple;
    - remaining columns draw from a small constant pool so joins have
      selectivity.

    Every relation is installed with [Instance.set]; total cost is
    linear in the number of cells. *)

val topo_tables : Smg_relational.Schema.t -> string list
(** Table names ordered so every RIC's target precedes its source.
    Assumes the RIC graph is acyclic (er2rel designs are); a cycle
    degrades to the declaration order of the tables involved. *)

val populate :
  scale:int -> seed:int -> Smg_relational.Schema.t -> Smg_relational.Instance.t
(** [scale] is the approximate total tuple count, split evenly across
    tables (key-coverage caps can shrink a table below its share; no
    table is left empty). Deterministic in [(scale, seed, schema)]. *)
