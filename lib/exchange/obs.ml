type tstats = {
  mutable st_scanned : int;
  mutable st_probes : int;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_checks : int;
  mutable st_satisfied : int;
  mutable st_emitted : int;
  mutable st_nulls : int;
  mutable st_seconds : float;
}

let fresh_tstats () =
  {
    st_scanned = 0;
    st_probes = 0;
    st_hits = 0;
    st_misses = 0;
    st_checks = 0;
    st_satisfied = 0;
    st_emitted = 0;
    st_nulls = 0;
    st_seconds = 0.;
  }

let pp_tstats ppf s =
  Fmt.pf ppf
    "scanned %d  probes %d (%d hit/%d miss)  checks %d (%d sat)  emitted %d  \
     nulls %d  %.3f ms"
    s.st_scanned s.st_probes s.st_hits s.st_misses s.st_checks s.st_satisfied
    s.st_emitted s.st_nulls (1000. *. s.st_seconds)

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

let snapshot (s : tstats) =
  {
    n_scanned = s.st_scanned;
    n_probes = s.st_probes;
    n_hits = s.st_hits;
    n_misses = s.st_misses;
    n_checks = s.st_checks;
    n_satisfied = s.st_satisfied;
    n_emitted = s.st_emitted;
    n_nulls = s.st_nulls;
    n_seconds = s.st_seconds;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "scanned %d  probes %d (%d hit/%d miss)  checks %d (%d sat)  emitted %d  \
     nulls %d  %.3f ms"
    s.n_scanned s.n_probes s.n_hits s.n_misses s.n_checks s.n_satisfied
    s.n_emitted s.n_nulls (1000. *. s.n_seconds)

(* ---- shard / intern observability -------------------------------------- *)

type shard_view = {
  sv_shards : int;
  sv_tuples : int array;
  sv_rot : int array;
  sv_intern_pool : int;
}

let pp_int_array ppf a =
  Array.iteri (fun i v -> Fmt.pf ppf "%s%d" (if i = 0 then "" else " ") v) a

let pp_shard_view ppf v =
  Fmt.pf ppf "shards %d  tuples [%a]  rot [%a]  intern pool %d" v.sv_shards
    pp_int_array v.sv_tuples pp_int_array v.sv_rot v.sv_intern_pool
