(** Composable resource budgets: wall-clock deadlines plus deterministic
    fuel counters.

    A budget is threaded through hot search loops (the Steiner DP, path
    enumeration, plan evaluation) and consumed with {!tick} / {!burn}.
    Fuel is exact and deterministic — the same inputs burn the same
    amount — while the deadline is checked against the clock only
    every [interval] ticks, so the per-tick cost is a decrement and a
    compare. Once a budget is exhausted it stays exhausted (sticky), so
    all stages sharing it stop promptly.

    Deadlines are measured on {!Clock}, which reads CLOCK_MONOTONIC: a
    budget records its start and is past its deadline once more than
    its allowance has elapsed since. A wall-clock step (NTP, a manual
    [date]) neither fires a deadline early nor arms it forever. *)

type reason =
  | Fuel  (** the deterministic operation counter ran out *)
  | Deadline  (** the wall-clock deadline passed *)

type t

val create : ?deadline_ms:float -> ?fuel:int -> ?interval:int -> unit -> t
(** A budget with an optional wall-clock deadline (milliseconds from
    now) and an optional fuel allowance. Omitted resources are
    unlimited. [interval] (default 256) is the number of ticks between
    wall-clock checks. *)

val unlimited : unit -> t
(** A budget that never exhausts. *)

val tick : t -> bool
(** Consume one unit of fuel; [true] while the budget still has
    resources. After exhaustion every call returns [false]. *)

val burn : t -> int -> bool
(** Consume [n] units at once (one check for a block of [n] cheap
    operations — this is what keeps guard overhead negligible). *)

val ok : t -> bool
(** [true] while the budget is not exhausted; forces a wall-clock check,
    so use at loop heads of non-hot code, not per-element. *)

val exhausted : t -> reason option
(** Why the budget ran out, if it did. Pure read, no clock check. *)

exception Exhausted of reason

val tick_exn : t -> unit
val burn_exn : t -> int -> unit
(** Like {!tick} / {!burn} but raise {!Exhausted} on (first or repeated)
    exhaustion — for deep recursions where unwinding is the cleanest way
    out. Callers are expected to catch the exception at a stage
    boundary. *)

val remaining_fuel : t -> int option
(** [None] when fuel is unlimited. *)

val split : t -> parts:int -> t list
(** [split b ~parts] divides [b]'s remaining fuel into [parts] equal
    shares (remainder going to the first children), each under [b]'s
    remaining time allowance: the part of [b]'s allowance not yet
    elapsed at the split. [b] itself is unchanged (beyond being marked
    spent if its deadline has passed) — charge the children's
    consumption back with {!absorb} after the forked work joins. The
    share sizes depend only on [b]'s remaining fuel and [parts], so
    forked fuel accounting is deterministic for any domain count. *)

val absorb : t -> t -> unit
(** [absorb b child] charges the fuel a {!split} child consumed back to
    [b] (exhausting [b] if its fuel reaches zero) and propagates a
    deadline exhaustion — the child's deadline is [b]'s own. A child
    that merely spent its fuel share does not exhaust [b]: [b] may
    still have fuel left for the remaining work. *)

val pp_reason : Format.formatter -> reason -> unit
