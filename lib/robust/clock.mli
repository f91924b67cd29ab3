(** The one clock every timer in the library and its tools reads:
    seconds on CLOCK_MONOTONIC. Wall-clock steps (NTP, a manual
    [date]) cannot stretch, shrink or reverse an interval measured on
    it. Its origin is unspecified, so only differences between two
    readings mean anything. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin, never decreasing. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] is [(f (), seconds f took)]. *)
