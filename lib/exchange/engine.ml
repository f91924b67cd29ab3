module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Intern = Smg_relational.Intern
module Colstore = Smg_relational.Colstore
module Dependency = Smg_cq.Dependency
module Budget = Smg_robust.Budget
module Clock = Smg_robust.Clock

(* The execution substrate: every tuple cell is an interned int code
   ({!Smg_relational.Intern} — constants non-negative, labelled nulls
   negative), every relation a {!Smg_relational.Colstore} — a flat
   row-major int arena with hash-partitioned membership shards. The
   hot loops (scan, probe, novelty, key egds) compare and hash machine
   ints; boxed [Value.t]s appear only at the edges (building stores
   from an [Instance], materializing the target, Skolem terms).

   The arena is insertion-ordered and shared across shards, so firing
   order — and with it the minted null labels and the materialized
   target — is independent of the shard count. *)

(* ---- mutable per-relation stores --------------------------------------- *)

type store = {
  s_header : string list;
  mutable s_cs : Colstore.t;  (* replaced wholesale by [apply_subst] *)
}

(* Below this live count, a filtered scan beats paying for the hash
   index (see PR 5's small-instance fix). Stores that already have the
   index keep using it — inserts maintain it either way. *)
let index_threshold = 64

(* ---- engine state ------------------------------------------------------- *)

(* (skolem fn, interned arg codes) -> interned term code: a pure cache
   over [Chase.skolem_term] (deterministic, append-only), so the hot
   loops skip its rendered-string key and mutex *)
type skmemo = (string * int list, int) Hashtbl.t

type t = {
  e_src : (string, store) Hashtbl.t;
  e_lazy : (string, string list * Value.t array list) Hashtbl.t;
      (* source tables no plan scans, held unbuilt (header, tuples):
         interning their tuples would dominate generator-scale runs
         where the mappings touch a few of many tables. Never read by
         any plan, so skipping them in [apply_subst] is invisible; a
         late {!src_store} force (defensive only) happens on the caller
         domain. *)
  e_tgt : (string, store) Hashtbl.t;
  e_target_schema : Schema.t;
  e_nshards : int;
  e_skmemo : skmemo;
      (* touched only by [satisfied]/[fire], which run on the caller
         domain *)
  mutable e_next_null : int;  (* next label in the reserved block *)
  mutable e_null_limit : int;  (* last label of the reserved block *)
}

let null_block = 256

(* labels still come from the global [Value] allocator (so engine nulls
   and chase/Skolem nulls never collide), but the engine works with the
   interned code *)
let mint_null_code e =
  if e.e_next_null > e.e_null_limit then begin
    let first = Value.alloc_nulls null_block in
    e.e_next_null <- first;
    e.e_null_limit <- first + null_block - 1
  end;
  let k = e.e_next_null in
  e.e_next_null <- e.e_next_null + 1;
  Intern.null_code k

let header_of (tbl : Schema.table) =
  List.map (fun c -> c.Schema.col_name) tbl.Schema.columns

(* [tracked = false] skips hashing the initial tuples into the
   membership shards: right for source stores, which only receive
   inserts after a substitution rebuilt them (fire inserts into target
   stores only) and whose initial tuples are trusted duplicate-free. *)
(* Coded-arena cache: a relation's tuple list, once interned, keeps its
   flat coded arena keyed weakly by the list's physical identity (the
   lists are immutable and codes are global append-only, so a hit is
   exact). Repeat executions over one instance — the serve steady state
   and every benchmark loop — skip the interning pass entirely. Arenas
   are shared read-only between the engines that adopt them: engine
   source stores never append (fire inserts into targets, and a key-egd
   substitution rebuilds sources into fresh tracked stores), so sharing
   is safe; the mutex covers concurrent executes from pool domains. *)
let arena_lock = Mutex.create ()

let arena_cache :
    (Value.t array list Weak.t * int * (int * int array)) list ref =
  ref []

let coded_arena ~arity tuples =
  match tuples with
  | [] -> Intern.code_rows ~arity []
  | _ -> (
      Mutex.lock arena_lock;
      let live =
        List.filter (fun (w, _, _) -> Weak.check w 0) !arena_cache
      in
      arena_cache := live;
      let hit =
        List.find_opt
          (fun (w, ar, _) ->
            ar = arity
            && match Weak.get w 0 with Some l -> l == tuples | None -> false)
          live
      in
      match hit with
      | Some (_, _, res) ->
          Mutex.unlock arena_lock;
          res
      | None ->
          Mutex.unlock arena_lock;
          let res = Intern.code_rows ~arity tuples in
          let w = Weak.create 1 in
          Weak.set w 0 (Some tuples);
          Mutex.lock arena_lock;
          arena_cache := (w, arity, res) :: !arena_cache;
          Mutex.unlock arena_lock;
          res)

let store_of_instance ~shards header tuples =
  let arity = max 1 (List.length header) in
  let n, data = coded_arena ~arity tuples in
  {
    s_header = header;
    s_cs = Colstore.of_flat ~shards ~arity ~rows:n data;
  }

(* [only pred] gates eager store construction: tables outside the
   plans' scan set park their boxed tuples in [e_lazy] instead of
   paying the interning pass. *)
let create ~shards ~only ~source ~target inst =
  let src = Hashtbl.create 16
  and lzy = Hashtbl.create 16
  and tgt = Hashtbl.create 16 in
  List.iter
    (fun (tbl : Schema.table) ->
      let header = header_of tbl in
      let r = Instance.relation_or_empty inst tbl.Schema.tbl_name ~header in
      if only tbl.Schema.tbl_name then
        Hashtbl.replace src tbl.Schema.tbl_name
          (store_of_instance ~shards header r.Instance.tuples)
      else Hashtbl.replace lzy tbl.Schema.tbl_name (header, r.Instance.tuples))
    source.Schema.tables;
  List.iter
    (fun (tbl : Schema.table) ->
      let header = header_of tbl in
      Hashtbl.replace tgt tbl.Schema.tbl_name
        {
          s_header = header;
          s_cs =
            Colstore.create ~shards ~arity:(max 1 (List.length header)) 16;
        })
    target.Schema.tables;
  {
    e_src = src;
    e_lazy = lzy;
    e_tgt = tgt;
    e_target_schema = target;
    e_nshards = shards;
    e_skmemo = Hashtbl.create 256;
    e_next_null = 1;
    e_null_limit = 0;
  }

(* caller-domain only: the parallel phase touches scan predicates,
   which [execute] builds eagerly *)
let src_store e pred =
  match Hashtbl.find_opt e.e_src pred with
  | Some st -> st
  | None ->
      let header, tuples = Hashtbl.find e.e_lazy pred in
      Hashtbl.remove e.e_lazy pred;
      let st = store_of_instance ~shards:e.e_nshards header tuples in
      Hashtbl.replace e.e_src pred st;
      st

(* ---- interned plan views -------------------------------------------------

   A compiled {!Plan.t} is boxed immutable data; before executing, the
   engine lowers it once to a view whose constants are interned codes
   and whose lists are arrays, so the inner loops never touch a boxed
   value. Skolem arguments are lowered too: ground terms still intern
   through the chase's global term table (one labelled null per ground
   term) for cross-engine identity, but the engine reaches it through
   the per-engine [e_skmemo] code cache, so the common case never
   renders a term string. *)

type ibind = IbSlot of int | IbConst of int

(* a Skolem argument with constants pre-interned *)
type isk = SkSlot of int | SkConst of int | SkApp of string * isk list

type iscan = {
  is_pred : string;
  is_eqs : (int * ibind) array;
  is_cols : int array;  (* eq positions, in probe order *)
  is_selfeqs : (int * int) array;
  is_binds : (int * int) array;
}

type icell =
  | IcSlot of int
  | IcConst of int
  | IcNull of int
  | IcSkolem of string * isk list

type iemit = {
  ie_pred : string;
  ie_cells : icell array;
  ie_scratch : int array;
  mutable ie_store : store option;  (* [ie_pred]'s target store, once looked up *)
}

type ikcell =
  | IkSlot of int
  | IkConst of int
  | IkEx of int
  | IkSkolem of string * isk list

type icheck = {
  ic_pred : string;
  ic_cells : ikcell array;
  ic_probe : int array;
  ic_scratch : int array;  (* probe codes, refilled per satisfaction check *)
  mutable ic_store : store option;  (* [ic_pred]'s target store, once looked up *)
}

(* The scratch fields ([ic_scratch], [ip_exenv], [ip_trail], [ip_nulls],
   [ie_scratch]) are reused across triggers, and [ic_store]/[ie_store]
   spare a table lookup per trigger (a lowered plan serves one engine:
   {!execute} lowers its plans per call); all are touched only by
   [satisfied]/[fire], which run on the caller domain. *)
type iplan = {
  ip_name : string;
  ip_nslots : int;
  ip_scans : iscan array;
  ip_emits : iemit array;
  ip_checks : icheck array;
  ip_nnulls : int;
  ip_nex : int;
  ip_exenv : int array;  (* existential wildcard bindings *)
  ip_trail : int array;  (* wildcards bound, in binding order *)
  ip_nulls : int array;  (* the nulls minted for the current trigger *)
}

let intern_plan (plan : Plan.t) =
  let ibind = function
    | Plan.Slot s -> IbSlot s
    | Plan.Const c -> IbConst (Intern.code c)
  in
  let rec isk = function
    | Plan.ASlot s -> SkSlot s
    | Plan.AConst c -> SkConst (Intern.code c)
    | Plan.AApp (g, nested) -> SkApp (g, List.map isk nested)
  in
  let iscan (sc : Plan.scan) =
    {
      is_pred = sc.Plan.sc_pred;
      is_eqs =
        Array.of_list (List.map (fun (p, b) -> (p, ibind b)) sc.Plan.sc_eqs);
      is_cols = Array.of_list (List.map fst sc.Plan.sc_eqs);
      is_selfeqs = Array.of_list sc.Plan.sc_selfeqs;
      is_binds = Array.of_list sc.Plan.sc_binds;
    }
  in
  let icell = function
    | Plan.CSlot s -> IcSlot s
    | Plan.CConst c -> IcConst (Intern.code c)
    | Plan.CNull k -> IcNull k
    | Plan.CSkolem (f, args) -> IcSkolem (f, List.map isk args)
  in
  let iemit (em : Plan.emit) =
    {
      ie_pred = em.Plan.em_pred;
      ie_cells = Array.map icell em.Plan.em_cells;
      ie_scratch = Array.make (Array.length em.Plan.em_cells) 0;
      ie_store = None;
    }
  in
  let ikcell = function
    | Plan.KSlot s -> IkSlot s
    | Plan.KConst c -> IkConst (Intern.code c)
    | Plan.KEx x -> IkEx x
    | Plan.KSkolem (f, args) -> IkSkolem (f, List.map isk args)
  in
  let icheck (ck : Plan.check) =
    let probe = Array.of_list ck.Plan.ck_probe in
    {
      ic_pred = ck.Plan.ck_pred;
      ic_cells = Array.map ikcell ck.Plan.ck_cells;
      ic_probe = probe;
      ic_scratch = Array.make (Array.length probe) 0;
      ic_store = None;
    }
  in
  {
    ip_name = plan.Plan.p_name;
    ip_nslots = plan.Plan.p_nslots;
    ip_scans = Array.of_list (List.map iscan plan.Plan.p_scans);
    ip_emits = Array.of_list (List.map iemit plan.Plan.p_emits);
    ip_checks = Array.of_list (List.map icheck plan.Plan.p_checks);
    ip_nnulls = plan.Plan.p_nnulls;
    ip_nex = plan.Plan.p_nex;
    ip_exenv = Array.make (max plan.Plan.p_nex 1) 0;
    ip_trail = Array.make (max plan.Plan.p_nex 1) 0;
    ip_nulls = Array.make (max plan.Plan.p_nnulls 1) 0;
  }

(* ---- probing ------------------------------------------------------------

   A probe walks the candidate rows whose [cols] cells may equal
   [codes]: the chain of a built index ({!Colstore.first}/{!Colstore.next}),
   or, with no index, every arena row in order. A chain mixes keys and
   keeps rows tombstoned since the last relink, so each candidate is
   re-verified by int compare ([row_matches]). The kernels below are
   top-level functions over explicit arguments, walking in [while]
   loops: no closure, ref cell or option is allocated per row. *)

(* The index a probe on [cols] walks: the built one; else, with [cache]
   and at least [index_threshold] live rows, a new one; else
   {!Colstore.no_index}, a filtered scan. [cache = false] never mutates
   the store: the parallel scan phase probes from worker domains, where
   only pre-built indexes may be used. *)
let probe_index ~cache cs cols =
  let ix = Colstore.find_index cs cols in
  if ix != Colstore.no_index || (not cache) || Colstore.count cs < index_threshold
  then ix
  else Colstore.ensure_index cs cols

(* the walk's first candidate and the one after [row]; [-1] ends it *)
let first_candidate ix n codes =
  if ix != Colstore.no_index then Colstore.first ix codes
  else if n > 0 then 0
  else -1

let next_candidate ix n row =
  if ix != Colstore.no_index then Colstore.next ix row
  else if row + 1 < n then row + 1
  else -1

(* live, and holding [codes] at [cols] *)
let row_matches cs data ar (cols : int array) (codes : int array) row =
  (Colstore.dead cs = 0 || Colstore.is_live cs row)
  &&
  let base = row * ar in
  let ncols = Array.length cols in
  let i = ref 0 in
  while
    !i < ncols
    && Array.unsafe_get data (base + Array.unsafe_get cols !i)
       = Array.unsafe_get codes !i
  do
    incr i
  done;
  !i = ncols

(* ---- satisfaction check ------------------------------------------------- *)

(* A ground Skolem term's interned code, through the per-engine memo.
   A miss falls back to [Chase.skolem_term] — the global table keeps
   one labelled null per ground term across engines and the verifier's
   chase — then caches its code keyed by the interned argument codes,
   so recurrences never render the term string again. Caller-domain
   only, like null minting. The memo key is built per call: Skolem
   cells allocate. *)
let rec skolem_app memo f codes =
  match Hashtbl.find_opt memo (f, codes) with
  | Some c -> c
  | None ->
      let c =
        Intern.code
          (Smg_cq.Chase.skolem_term ~f ~args:(List.map Intern.value codes))
      in
      Hashtbl.add memo (f, codes) c;
      c

and sk_code memo env = function
  | SkSlot s -> env.(s)
  | SkConst c -> c
  | SkApp (g, nested) -> skolem_app memo g (List.map (sk_code memo env) nested)

let skolem_cell_code memo env f args =
  skolem_app memo f (List.map (sk_code memo env) args)

(* no interned code is [min_int]: free sentinel for unbound wildcards *)
let unbound = min_int

(* unbind the wildcards pushed on the trail above height [t0] *)
let unwind (ip : iplan) t0 tn =
  for t = tn - 1 downto t0 do
    ip.ip_exenv.(ip.ip_trail.(t)) <- unbound
  done

(* a probe position's code: statically known to be bound *)
let probe_code e (ip : iplan) env = function
  | IkSlot s -> env.(s)
  | IkConst c -> c
  | IkSkolem (f, args) -> skolem_cell_code e.e_skmemo env f args
  | IkEx x ->
      assert (ip.ip_exenv.(x) <> unbound);
      ip.ip_exenv.(x)

(* Match check [ck]'s cells from [pos] against the row at [base]: bound
   wildcards must agree, unbound ones are bound and pushed on the trail
   at height [tn]. The new trail height, or [-1] once the bindings this
   row made (those above [t0]) are undone. *)
let rec match_cells e (ip : iplan) env ck data base pos t0 tn =
  if pos = Array.length ck.ic_cells then tn
  else
    let v = Array.unsafe_get data (base + pos) in
    match Array.unsafe_get ck.ic_cells pos with
    | IkSlot s ->
        if v = env.(s) then match_cells e ip env ck data base (pos + 1) t0 tn
        else mismatch ip t0 tn
    | IkConst c ->
        if v = c then match_cells e ip env ck data base (pos + 1) t0 tn
        else mismatch ip t0 tn
    | IkSkolem (f, args) ->
        if v = skolem_cell_code e.e_skmemo env f args then
          match_cells e ip env ck data base (pos + 1) t0 tn
        else mismatch ip t0 tn
    | IkEx x ->
        let b = ip.ip_exenv.(x) in
        if b = unbound then begin
          ip.ip_exenv.(x) <- v;
          ip.ip_trail.(tn) <- x;
          match_cells e ip env ck data base (pos + 1) t0 (tn + 1)
        end
        else if v = b then match_cells e ip env ck data base (pos + 1) t0 tn
        else mismatch ip t0 tn

and mismatch ip t0 tn =
  unwind ip t0 tn;
  -1

(* Restricted-chase trigger test: does some assignment of the
   existential wildcards extend [env] so every rhs atom is present?
   Skolem cells are computed from [env], not wildcarded. Backtracking
   over the check templates from [ci], with [tn] wildcards on the trail;
   each template probes the target store on its statically-known
   positions. *)
let rec checks_from e (ip : iplan) env stats ci tn =
  ci = Array.length ip.ip_checks || check_at e ip env stats ci tn

and check_at e (ip : iplan) env (stats : Obs.tstats) ci tn =
  let ck = ip.ip_checks.(ci) in
  let cs =
    match ck.ic_store with
    | Some st -> st.s_cs
    | None ->
        let st = Hashtbl.find e.e_tgt ck.ic_pred in
        ck.ic_store <- Some st;
        st.s_cs
  in
  let data = Colstore.data cs in
  let ar = Colstore.arity cs in
  let n = Colstore.rows cs in
  let nprobe = Array.length ck.ic_probe in
  let found = ref false in
  if nprobe = 0 then begin
    let row = ref 0 in
    while (not !found) && !row < n do
      if
        (Colstore.dead cs = 0 || Colstore.is_live cs !row)
        && row_extends e ip env stats ck data ar ci tn !row
      then found := true;
      incr row
    done
  end
  else begin
    stats.Obs.st_probes <- stats.Obs.st_probes + 1;
    let codes = ck.ic_scratch in
    for j = 0 to nprobe - 1 do
      codes.(j) <- probe_code e ip env ck.ic_cells.(ck.ic_probe.(j))
    done;
    let ix = probe_index ~cache:true cs ck.ic_probe in
    let row = ref (first_candidate ix n codes) and hit = ref false in
    while (not !found) && !row >= 0 do
      if row_matches cs data ar ck.ic_probe codes !row then begin
        hit := true;
        if row_extends e ip env stats ck data ar ci tn !row then found := true
      end;
      if not !found then row := next_candidate ix n !row
    done;
    if !hit then stats.Obs.st_hits <- stats.Obs.st_hits + 1
    else stats.Obs.st_misses <- stats.Obs.st_misses + 1
  end;
  !found

(* the row matches check [ci] and the later checks can be met too;
   otherwise every binding it made is undone *)
and row_extends e ip env stats ck data ar ci tn row =
  let tn' = match_cells e ip env ck data (row * ar) 0 tn tn in
  tn' >= 0
  && (checks_from e ip env stats (ci + 1) tn'
     || begin
          unwind ip tn tn';
          false
        end)

let satisfied e (ip : iplan) env stats =
  Array.fill ip.ip_exenv 0 (Array.length ip.ip_exenv) unbound;
  checks_from e ip env stats 0 0

(* ---- firing ------------------------------------------------------------- *)

let emit_code memo nulls env = function
  | IcSlot s -> env.(s)
  | IcConst c -> c
  | IcNull k -> nulls.(k)
  | IcSkolem (f, args) -> skolem_cell_code memo env f args

let fire ?budget e (ip : iplan) env (stats : Obs.tstats) =
  stats.Obs.st_checks <- stats.Obs.st_checks + 1;
  if satisfied e ip env stats then
    stats.Obs.st_satisfied <- stats.Obs.st_satisfied + 1
  else begin
    (* each minted null costs a fuel unit: a blown null budget stops the
       run before the instance explodes *)
    (match budget with
    | Some b when ip.ip_nnulls > 0 -> Budget.burn_exn b ip.ip_nnulls
    | Some _ | None -> ());
    let nulls = ip.ip_nulls in
    for k = 0 to ip.ip_nnulls - 1 do
      nulls.(k) <- mint_null_code e
    done;
    stats.Obs.st_nulls <- stats.Obs.st_nulls + ip.ip_nnulls;
    for k = 0 to Array.length ip.ip_emits - 1 do
      let em = ip.ip_emits.(k) in
      let tup = em.ie_scratch in
      for i = 0 to Array.length em.ie_cells - 1 do
        tup.(i) <- emit_code e.e_skmemo nulls env em.ie_cells.(i)
      done;
      let st =
        match em.ie_store with
        | Some st -> st
        | None ->
            let st = Hashtbl.find e.e_tgt em.ie_pred in
            em.ie_store <- Some st;
            st
      in
      match Colstore.insert st.s_cs tup with
      | Some _ -> stats.Obs.st_emitted <- stats.Obs.st_emitted + 1
      | None -> ()
    done
  end

(* ---- plan evaluation ---------------------------------------------------- *)

let tick = function Some b -> Budget.tick_exn b | None -> ()
let bval env = function IbSlot s -> env.(s) | IbConst c -> c

let selfeqs_ok (selfeqs : (int * int) array) (data : int array) base =
  let ok = ref true in
  for j = 0 to Array.length selfeqs - 1 do
    let pos, p0 = selfeqs.(j) in
    if data.(base + pos) <> data.(base + p0) then ok := false
  done;
  !ok

let bind env (binds : (int * int) array) (data : int array) base =
  for j = 0 to Array.length binds - 1 do
    let pos, s = binds.(j) in
    env.(s) <- data.(base + pos)
  done

(* the scan's eq constraints hold on the row at [base] *)
let eqs_ok env (eqs : (int * ibind) array) (data : int array) base =
  let ok = ref true in
  for j = 0 to Array.length eqs - 1 do
    let pos, b = eqs.(j) in
    if data.(base + pos) <> bval env b then ok := false
  done;
  !ok

(* scan step [i] over the delta's coded tuples *)
let rec scan_delta step budget env sc i (stats : Obs.tstats) = function
  | [] -> ()
  | cells :: rest ->
      tick budget;
      stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
      if eqs_ok env sc.is_eqs cells 0 && selfeqs_ok sc.is_selfeqs cells 0 then begin
        bind env sc.is_binds cells 0;
        step (i + 1)
      end;
      scan_delta step budget env sc i stats rest

(* [delta]: when [Some (i, rows)], scan step [i] iterates only the given
   coded tuples — the semi-naive restriction (egd re-fires, lib/delta
   batches). [range]: restrict scan 0 to arena rows [lo, hi) — how the
   parallel pass hands each worker a contiguous driving chunk. [src]
   maps a predicate to its store. [sink] consumes each completed
   binding; the env array is reused across bindings. Per row, the scan
   levels allocate nothing. *)
let enumerate_int ~src ?budget ?(cache = true) (ip : iplan)
    ?(delta : (int * int array list) option) ?range (stats : Obs.tstats) ~sink
    =
  let env = Array.make (max ip.ip_nslots 1) 0 in
  let nscans = Array.length ip.ip_scans in
  (* per-call probe-code buffers, one per scan: a scan level is never
     re-entered while its own probe is being iterated, so each buffer
     is refilled at most once per partial binding *)
  let codes_scratch =
    Array.map
      (fun (sc : iscan) -> Array.make (Array.length sc.is_eqs) 0)
      ip.ip_scans
  in
  let delta_at = match delta with Some (j, _) -> j | None -> -1 in
  let delta_rows = match delta with Some (_, ts) -> ts | None -> [] in
  let rec step i =
    if i = nscans then sink env
    else begin
      let sc = ip.ip_scans.(i) in
      if i = delta_at then scan_delta step budget env sc i stats delta_rows
      else begin
        let cs = (src sc.is_pred).s_cs in
        let data = Colstore.data cs in
        let ar = Colstore.arity cs in
        if i = 0 && range <> None then begin
          (* chunked driving scan: verify eq constraints inline (at scan
             0 they can only be constants) instead of probing, so the
             row range is respected *)
          let lo, hi = match range with Some r -> r | None -> (0, 0) in
          for row = lo to hi - 1 do
            tick budget;
            stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
            if Colstore.dead cs = 0 || Colstore.is_live cs row then begin
              let base = row * ar in
              if eqs_ok env sc.is_eqs data base && selfeqs_ok sc.is_selfeqs data base
              then begin
                bind env sc.is_binds data base;
                step (i + 1)
              end
            end
          done
        end
        else if Array.length sc.is_eqs = 0 then begin
          for row = 0 to Colstore.rows cs - 1 do
            tick budget;
            stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
            if Colstore.dead cs = 0 || Colstore.is_live cs row then begin
              let base = row * ar in
              if selfeqs_ok sc.is_selfeqs data base then begin
                bind env sc.is_binds data base;
                step (i + 1)
              end
            end
          done
        end
        else begin
          stats.Obs.st_probes <- stats.Obs.st_probes + 1;
          let codes = codes_scratch.(i) in
          for j = 0 to Array.length sc.is_eqs - 1 do
            codes.(j) <- bval env (snd sc.is_eqs.(j))
          done;
          let ix = probe_index ~cache cs sc.is_cols in
          let n = Colstore.rows cs in
          let row = ref (first_candidate ix n codes) and hit = ref false in
          while !row >= 0 do
            tick budget;
            if row_matches cs data ar sc.is_cols codes !row then begin
              hit := true;
              let base = !row * ar in
              if selfeqs_ok sc.is_selfeqs data base then begin
                bind env sc.is_binds data base;
                step (i + 1)
              end
            end;
            row := next_candidate ix n !row
          done;
          if !hit then stats.Obs.st_hits <- stats.Obs.st_hits + 1
          else stats.Obs.st_misses <- stats.Obs.st_misses + 1
        end
      end
    end
  in
  if nscans > 0 then step 0

let eval_plan ?budget e (ip : iplan) ?delta (stats : Obs.tstats) =
  enumerate_int ~src:(src_store e) ?budget ip ?delta stats ~sink:(fun env ->
      fire ?budget e ip env stats)

(* ---- parallel initial pass ---------------------------------------------- *)

module Pool = Smg_parallel.Pool

(* The initial (non-delta) pass of one plan, fanned out over a pool.

   Phase 1 (parallel, read-only): the driving scan's arena is split into
   coarse contiguous row ranges — at least [min_chunk_rows] driving rows
   per task, so task overhead amortizes at generator scale, and at most
   [parallel_chunks] tasks, a fan-out independent of the domain count so
   budget accounting is too. Each worker enumerates its join bindings
   against pre-built indexes and collects env copies. Phase 1 runs no
   satisfaction checks: workers allocate
   nothing but the env copies and never touch the chase's global Skolem
   table, so there is no cross-domain contention to serialize on.

   Phase 2 (sequential): collected envs replay through {!fire} in chunk
   order — the same order the sequential scan visits them — so
   satisfaction checks, null minting, Skolem interning, and store
   mutation all happen on the caller's domain, and the output is
   identical to the sequential pass's.

   Budgets: each chunk gets an equal fuel share ([Budget.split] over the
   data-determined chunk count); a chunk that exhausts its share stops
   early but its collected prefix is still merged, and the exhaustion is
   re-raised after the merge — the target built so far is a sound
   prefix, exactly the [run_bounded] contract. *)
let parallel_chunks = 32
let min_chunk_rows = 2048

let eval_plan_parallel pool ?budget e (ip : iplan) (stats : Obs.tstats) =
  if Array.length ip.ip_scans = 0 then ()
  else begin
    let st0 = src_store e ip.ip_scans.(0).is_pred in
    let n = Colstore.rows st0.s_cs in
    let nchunks =
      min parallel_chunks ((n + min_chunk_rows - 1) / min_chunk_rows)
    in
    if nchunks <= 1 || Pool.size pool <= 1 then eval_plan ?budget e ip stats
    else begin
      (* pre-build every index the read-only phase will probe *)
      Array.iteri
        (fun i (sc : iscan) ->
          if i > 0 && Array.length sc.is_eqs > 0 then begin
            let st = src_store e sc.is_pred in
            if Colstore.count st.s_cs >= index_threshold then
              ignore (Colstore.ensure_index st.s_cs sc.is_cols)
          end)
        ip.ip_scans;
      let chunk = (n + nchunks - 1) / nchunks in
      let subs =
        match budget with
        | None -> Array.make nchunks None
        | Some b ->
            Array.of_list (List.map Option.some (Budget.split b ~parts:nchunks))
      in
      let results =
        Pool.map pool ~chunk:1
          (fun k ->
            let cstats = Obs.fresh_tstats () in
            let lo = k * chunk in
            let hi = min n (lo + chunk) in
            let acc = ref [] in
            let hit = ref None in
            (try
               enumerate_int
                 ~src:(fun pred -> Hashtbl.find e.e_src pred)
                 ?budget:subs.(k) ~cache:false ip ~range:(lo, hi) cstats
                 ~sink:(fun env -> acc := Array.copy env :: !acc)
             with Budget.Exhausted r -> hit := Some r);
            (List.rev !acc, cstats, !hit))
          (Array.init nchunks Fun.id)
      in
      let exhausted = ref None in
      Array.iteri
        (fun k (_, cstats, hit) ->
          (match (budget, subs.(k)) with
          | Some b, Some sub -> Budget.absorb b sub
          | _, _ -> ());
          (match hit with
          | Some r when !exhausted = None -> exhausted := Some r
          | _ -> ());
          stats.Obs.st_scanned <- stats.Obs.st_scanned + cstats.Obs.st_scanned;
          stats.Obs.st_probes <- stats.Obs.st_probes + cstats.Obs.st_probes;
          stats.Obs.st_hits <- stats.Obs.st_hits + cstats.Obs.st_hits;
          stats.Obs.st_misses <- stats.Obs.st_misses + cstats.Obs.st_misses)
        results;
      Array.iter
        (fun (envs, _, _) ->
          List.iter (fun env -> fire ?budget e ip env stats) envs)
        results;
      match !exhausted with
      | Some r -> raise (Budget.Exhausted r)
      | None -> ()
    end
  end

(* ---- key-egd pass ------------------------------------------------------- *)

(* The key egds' substitution, null code -> code. No key ever maps to
   itself. *)
module Subst = Smg_relational.Inttbl

type egd_result =
  | EgdConflict of string
  | EgdSubst of Subst.t * int  (* null code -> code, merges *)

(* Group every keyed target table by its (resolved) key cells and unify
   the non-key columns of each group — union-find over null codes with
   path compression; a constant/constant clash is a hard failure, as in
   the chase. Live rows are visited in arena order. Each table's groups
   live in one open-addressing table over the key cells whose slots
   hold group ids; a group's representative is the first member's
   resolved tuple, frozen into one flat arena of [arity] cells per
   group. Keys are compared cell by cell (never by hash), so a hash
   collision can never conflate two groups. Nothing is allocated per
   row. Cascades are caught by the next round's pass. *)
let egd_pass e =
  let subst = Subst.create 0 in
  let rec resolve c =
    if c >= 0 then c
    else
      let c' = Subst.find subst c c in
      if c' = c then c
      else
        let r = resolve c' in
        if r <> c' then Subst.replace subst c r;
        r
  in
  let merges = ref 0 in
  let conflict = ref None in
  let unify table col u v =
    let ru = resolve u and rv = resolve v in
    if ru <> rv then
      if Intern.is_null_code ru then begin
        Subst.replace subst ru rv;
        incr merges
      end
      else if Intern.is_null_code rv then begin
        Subst.replace subst rv ru;
        incr merges
      end
      else if !conflict = None then
        conflict :=
          Some
            (Printf.sprintf "key egd on %s.%s: %s vs %s" table col
               (Value.to_string (Intern.value ru))
               (Value.to_string (Intern.value rv)))
  in
  List.iter
    (fun (tbl : Schema.table) ->
      if tbl.Schema.key <> [] && !conflict = None then
        match Hashtbl.find_opt e.e_tgt tbl.Schema.tbl_name with
        | None -> ()
        | Some st ->
            let cs = st.s_cs in
            let data = Colstore.data cs in
            let ar = Colstore.arity cs in
            let header = Array.of_list st.s_header in
            let keypos =
              Array.of_list
                (List.map
                   (fun k ->
                     let rec find i =
                       if header.(i) = k then i else find (i + 1)
                     in
                     find 0)
                   tbl.Schema.key)
            in
            let nkey = Array.length keypos in
            let is_key =
              Array.map (fun c -> List.mem c tbl.Schema.key) header
            in
            let n = Colstore.count cs in
            let nslots = ref 16 in
            while !nslots < 2 * n do
              nslots := 2 * !nslots
            done;
            let mask = !nslots - 1 in
            let slots = Array.make !nslots (-1) in
            let reps = Array.make (max 1 (n * ar)) 0 in
            let ngroups = ref 0 in
            let rtup = Array.make ar 0 and kcells = Array.make nkey 0 in
            let same_key g =
              let gb = g * ar in
              let j = ref 0 in
              while !j < nkey && reps.(gb + keypos.(!j)) = kcells.(!j) do
                incr j
              done;
              !j = nkey
            in
            Colstore.iter_live cs (fun row ->
                if !conflict = None then begin
                  let base = row * ar in
                  for i = 0 to ar - 1 do
                    rtup.(i) <- resolve data.(base + i)
                  done;
                  for j = 0 to nkey - 1 do
                    kcells.(j) <- rtup.(keypos.(j))
                  done;
                  let s =
                    ref (Colstore.spread (Colstore.hash_cells kcells) land mask)
                  in
                  while slots.(!s) >= 0 && not (same_key slots.(!s)) do
                    s := (!s + 1) land mask
                  done;
                  let g = slots.(!s) in
                  if g < 0 then begin
                    slots.(!s) <- !ngroups;
                    Array.blit rtup 0 reps (!ngroups * ar) ar;
                    incr ngroups
                  end
                  else
                    let gb = g * ar in
                    for i = 0 to ar - 1 do
                      if (not is_key.(i)) && !conflict = None then
                        unify tbl.Schema.tbl_name header.(i) reps.(gb + i)
                          rtup.(i)
                    done
                end))
    e.e_target_schema.Schema.tables;
  match !conflict with
  | Some msg -> EgdConflict msg
  | None -> EgdSubst (subst, !merges)

(* Rewrite every store (source AND target) through the substitution by
   rebuilding its arena: resolved live rows re-insert in arena order
   (dedup through the fresh membership shards), and cached indexes are
   dropped (rebuilt lazily). Rebuilt stores are always tracked — this
   is where source stores pay for membership. Returns each source
   relation's changed rows, coded, in arena order: the deltas that
   semi-naive re-firing scans. Target changes are not collected, since
   no plan scans a target relation. *)
let apply_subst e subst =
  let rec resolve c =
    if c >= 0 then c
    else
      let c' = Subst.find subst c c in
      if c' = c then c else resolve c'
  in
  let rewrite deltas name st =
    let cs = st.s_cs in
    let ar = Colstore.arity cs in
    let data = Colstore.data cs in
    let ncs =
      Colstore.create ~shards:(Colstore.nshards cs) ~arity:ar
        (Colstore.count cs)
    in
    let scratch = Array.make ar 0 in
    let delta = ref [] in
    Colstore.iter_live cs (fun row ->
        let base = row * ar in
        let touched = ref false in
        for j = 0 to ar - 1 do
          let v = data.(base + j) in
          let r = resolve v in
          if r <> v then touched := true;
          scratch.(j) <- r
        done;
        match Colstore.insert ncs scratch with
        | Some _ when !touched -> delta := Array.copy scratch :: !delta
        | Some _ | None -> ());
    st.s_cs <- ncs;
    match deltas with
    | Some tbl when !delta <> [] -> Hashtbl.replace tbl name (List.rev !delta)
    | Some _ | None -> ()
  in
  let deltas = Hashtbl.create 8 in
  Hashtbl.iter (rewrite (Some deltas)) e.e_src;
  Hashtbl.iter (rewrite None) e.e_tgt;
  deltas

(* ---- driver ------------------------------------------------------------- *)

type report = {
  r_target : Instance.t;
  r_complete : bool;
  r_rounds : int;
  r_stats : (string * Obs.stats) list;
  r_egd_merges : int;
  r_sweep_dropped : int;
  r_seconds : float;
  r_shards : Obs.shard_view;
}

let decode_row data ar base =
  let tup = Array.make ar (Intern.value data.(base)) in
  for i = 1 to ar - 1 do
    tup.(i) <- Intern.value data.(base + i)
  done;
  tup

let target_instance e =
  Hashtbl.fold
    (fun name st acc ->
      let cs = st.s_cs in
      if Colstore.count cs = 0 then acc
      else begin
        let data = Colstore.data cs in
        let ar = Colstore.arity cs in
        let tuples =
          Colstore.fold_live cs
            (fun tl row -> decode_row data ar (row * ar) :: tl)
            []
        in
        Instance.set acc name
          { Instance.header = st.s_header; tuples = List.rev tuples }
      end)
    e.e_tgt Instance.empty

(* The laconic target: {!Laconic.sweep_coded} over the target arenas
   (relations in name order, live rows in arena order), then only the
   survivors are decoded. Each relation comes out in reverse arena
   order, the order laconic bodies have always had. *)
let laconic_target e =
  let rels =
    Hashtbl.fold
      (fun name st acc ->
        if Colstore.count st.s_cs = 0 then acc else (name, st) :: acc)
      e.e_tgt []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let coded =
    List.map
      (fun (_, st) ->
        let cs = st.s_cs in
        let rows = Array.make (Colstore.count cs) 0 in
        ignore
          (Colstore.fold_live cs
             (fun k row ->
               rows.(k) <- row;
               k + 1)
             0);
        { Laconic.arity = Colstore.arity cs; data = Colstore.data cs; rows })
      rels
  in
  let live, dropped = Laconic.sweep_coded coded in
  let inst =
    List.fold_left2
      (fun acc (name, st) ((c : Laconic.coded), live) ->
        let tuples = ref [] in
        Array.iteri
          (fun k row ->
            if live.(k) then
              tuples := decode_row c.data c.arity (row * c.arity) :: !tuples)
          c.rows;
        Instance.set acc name { Instance.header = st.s_header; tuples = !tuples })
      Instance.empty rels (List.combine coded live)
  in
  (inst, dropped)

let shard_view e =
  let nsh = e.e_nshards in
  let tuples = Array.make nsh 0 and rot = Array.make nsh 0 in
  Hashtbl.iter
    (fun _ st ->
      Array.iteri
        (fun i v -> tuples.(i) <- tuples.(i) + v)
        (Colstore.shard_live st.s_cs);
      Array.iteri
        (fun i v -> rot.(i) <- rot.(i) + v)
        (Colstore.shard_rot st.s_cs))
    e.e_tgt;
  {
    Obs.sv_shards = nsh;
    sv_tuples = tuples;
    sv_rot = rot;
    sv_intern_pool = Intern.pool_size ();
  }

type outcome =
  | Complete of report
  | Budget_exhausted of Budget.reason * report
      (** the target built before the budget ran out — a sound but
          possibly incomplete prefix of the universal solution *)
  | Failed of string

(* ---- compile / execute split -------------------------------------------

   A [compiled] value is pure immutable data (schemas + plans): compile
   once, execute over any number of instances — including concurrently
   from several domains, since every execution allocates its own engine
   state, interned plan views, and counter accumulators. This is the
   artifact the lib/serve scenario registry caches. *)

type compiled = {
  c_source : Schema.t;
  c_target : Schema.t;
  c_plans : Plan.t list;
  c_delta : Plan.t list list;
  c_laconic : bool;
}

let compile ?card ?(laconic = false) ~source ~target ~mappings () =
  try
    let mappings = if laconic then Laconic.prepare mappings else mappings in
    let plans = List.map (Plan.compile ?card ~source ~target) mappings in
    (* one reordered variant per lhs atom: scan 0 is that atom, so a
       semi-naive re-evaluation can drive the join from the delta
       instead of re-running the full prefix of the bulk plan. Laconic
       plans are never maintained incrementally, so skip the work. *)
    let delta =
      if laconic then List.map (fun _ -> []) mappings
      else
        List.map
          (fun (tgd : Dependency.tgd) ->
            List.mapi
              (fun i _ -> Plan.compile ?card ~lead:i ~source ~target tgd)
              tgd.Dependency.lhs)
          mappings
    in
    Ok
      {
        c_source = source;
        c_target = target;
        c_plans = plans;
        c_delta = delta;
        c_laconic = laconic;
      }
  with Invalid_argument msg -> Error msg

(* shard-count resolution: explicit arg > SMG_SHARDS env > pool size > 1 *)
let resolve_shards ?shards ?pool () =
  match shards with
  | Some s -> max 1 s
  | None -> (
      match Sys.getenv_opt "SMG_SHARDS" with
      | Some s when (match int_of_string_opt (String.trim s) with
                    | Some v -> v > 0
                    | None -> false) ->
          int_of_string (String.trim s)
      | _ -> ( match pool with Some p -> Pool.size p | None -> 1))

let execute ?budget ?fault ?pool ?shards ?(max_rounds = 100) compiled inst =
  let {
    c_source = source;
    c_target = target;
    c_plans = plans;
    c_delta = _;
    c_laconic = laconic;
  } =
    compiled
  in
  (* the engine_step injection point fires once per plan evaluation
     (initial pass and every semi-naive re-fire): a Raise escapes to
     the caller's supervisor, a Delay burns wall clock against the
     budget — both failure modes the chaos harness classifies *)
  let step () =
    match fault with
    | Some f -> Smg_robust.Fault.fire f Smg_robust.Fault.Engine_step
    | None -> ()
  in
  try
    let nshards = resolve_shards ?shards ?pool () in
    (* only the plans' scan predicates need interned stores up front
       (delta variants scan the same relations) *)
    let needed = Hashtbl.create 16 in
    List.iter
      (fun (p : Plan.t) ->
        List.iter
          (fun (sc : Plan.scan) -> Hashtbl.replace needed sc.Plan.sc_pred ())
          p.Plan.p_scans)
      plans;
    let e = create ~shards:nshards ~only:(Hashtbl.mem needed) ~source ~target
        inst in
    let iplans = List.map intern_plan plans in
    let stats =
      List.map (fun (ip : iplan) -> (ip.ip_name, Obs.fresh_tstats ())) iplans
    in
    let t0 = Clock.now () in
    let egd_merges = ref 0 in
    let rounds = ref 1 in
    let complete = ref true in
    let failed = ref None in
    let exhausted = ref None in
    (try
       List.iter2
         (fun ip (_, st) ->
           step ();
           let (), dt =
             Clock.time (fun () ->
                 match pool with
                 | Some pool -> eval_plan_parallel pool ?budget e ip st
                 | None -> eval_plan ?budget e ip st)
           in
           st.Obs.st_seconds <- st.Obs.st_seconds +. dt)
         iplans stats;
       let continue_ = ref true in
       while !continue_ && !failed = None do
         match egd_pass e with
         | EgdConflict msg -> failed := Some msg
         | EgdSubst (_, 0) -> continue_ := false
         | EgdSubst (subst, n) ->
             egd_merges := !egd_merges + n;
             let deltas = apply_subst e subst in
             incr rounds;
             if !rounds > max_rounds then begin
               complete := false;
               continue_ := false
             end
             else begin
               (* semi-naive: re-fire each plan only through scan steps
                  whose relation has changed tuples *)
               List.iter2
                 (fun (ip : iplan) (_, st) ->
                   step ();
                   let (), dt =
                     Clock.time (fun () ->
                         Array.iteri
                           (fun i (sc : iscan) ->
                             match Hashtbl.find_opt deltas sc.is_pred with
                             | Some ts ->
                                 eval_plan ?budget e ip ~delta:(i, ts) st
                             | None -> ())
                           ip.ip_scans)
                   in
                   st.Obs.st_seconds <- st.Obs.st_seconds +. dt)
                 iplans stats
             end
       done
     with Budget.Exhausted reason ->
       exhausted := Some reason;
       complete := false);
    match !failed with
    | Some msg -> Failed msg
    | None ->
        let tgt, dropped =
          (* sweeping a budget-truncated instance is still sound: it only
             folds redundant tuples within what was built *)
          if laconic then laconic_target e else (target_instance e, 0)
        in
        let report =
          {
            r_target = tgt;
            r_complete = !complete;
            r_rounds = !rounds;
            r_stats =
              List.map (fun (name, st) -> (name, Obs.snapshot st)) stats;
            r_egd_merges = !egd_merges;
            r_sweep_dropped = dropped;
            r_seconds = Clock.now () -. t0;
            r_shards = shard_view e;
          }
        in
        (match !exhausted with
        | Some reason -> Budget_exhausted (reason, report)
        | None -> Complete report)
  with Invalid_argument msg -> Failed msg

let run_core ?budget ?fault ?pool ?shards ?max_rounds ?laconic ~source ~target
    ~mappings inst =
  let card name = Instance.cardinality inst name in
  match compile ~card ?laconic ~source ~target ~mappings () with
  | Error msg -> Failed msg
  | Ok compiled -> execute ?budget ?fault ?pool ?shards ?max_rounds compiled inst

let run ?pool ?shards ?max_rounds ?laconic ~source ~target ~mappings inst =
  match
    run_core ?pool ?shards ?max_rounds ?laconic ~source ~target ~mappings inst
  with
  | Complete r -> Ok r
  | Budget_exhausted (_, r) -> Ok r (* unreachable without a budget *)
  | Failed msg -> Error msg

let run_bounded ?budget ?fault ?pool ?shards ?max_rounds ?laconic ~source
    ~target ~mappings inst =
  run_core ?budget ?fault ?pool ?shards ?max_rounds ?laconic ~source ~target
    ~mappings inst

(* ---- store + enumeration surface for incremental maintenance ----------- *)

module Stores = struct
  type nonrec t = store

  let of_tuples ?shards ~header tuples =
    let nshards = resolve_shards ?shards () in
    let arity = max 1 (List.length header) in
    let cs =
      Colstore.create ~shards:nshards ~arity (List.length tuples)
    in
    List.iter
      (fun tup -> ignore (Colstore.insert cs (Intern.code_tuple tup)))
      tuples;
    { s_header = header; s_cs = cs }

  let header st = st.s_header

  let tuples st =
    let cs = st.s_cs in
    let data = Colstore.data cs in
    let ar = Colstore.arity cs in
    List.rev
      (Colstore.fold_live cs
         (fun tl row -> decode_row data ar (row * ar) :: tl)
         [])

  let count st = Colstore.count st.s_cs
  let rows st = Colstore.rows st.s_cs
  let find_row st cells = Colstore.find_row st.s_cs cells
  let insert st cells = Colstore.insert st.s_cs cells

  let iter_live st f =
    let cs = st.s_cs in
    Colstore.iter_live cs (fun row -> f (Colstore.row_cells cs row))

  let remove_many st doomed =
    let removed =
      List.filter_map
        (fun cells ->
          Option.map (fun row -> (cells, row)) (Colstore.remove st.s_cs cells))
        doomed
    in
    if removed <> [] then Colstore.maybe_prune st.s_cs;
    removed

  let shard_view ?(intern_pool = true) sts =
    match sts with
    | [] ->
        {
          Obs.sv_shards = 0;
          sv_tuples = [||];
          sv_rot = [||];
          sv_intern_pool = (if intern_pool then Intern.pool_size () else 0);
        }
    | st0 :: _ ->
        let nsh = Colstore.nshards st0.s_cs in
        let tuples = Array.make nsh 0 and rot = Array.make nsh 0 in
        List.iter
          (fun st ->
            Array.iteri
              (fun i v -> tuples.(i) <- tuples.(i) + v)
              (Colstore.shard_live st.s_cs);
            Array.iteri
              (fun i v -> rot.(i) <- rot.(i) + v)
              (Colstore.shard_rot st.s_cs))
          sts;
        {
          Obs.sv_shards = nsh;
          sv_tuples = tuples;
          sv_rot = rot;
          sv_intern_pool = (if intern_pool then Intern.pool_size () else 0);
        }
end

(* Build the hash indexes a plan's probing scans will want, so the
   first incremental evaluation after [init] doesn't pay an O(store)
   index build inside its timed path. *)
let prewarm ~src (plan : Plan.t) =
  List.iter
    (fun (sc : Plan.scan) ->
      match sc.Plan.sc_eqs with
      | [] -> ()
      | eqs ->
          let st = src sc.Plan.sc_pred in
          if Colstore.count st.s_cs >= index_threshold then
            ignore
              (Colstore.ensure_index st.s_cs
                 (Array.of_list (List.map fst eqs))))
    plan.Plan.p_scans

(* Code-level enumeration for incremental maintenance: the plan is
   lowered once by the caller ({!lower}), delta tuples arrive coded, and
   the sink sees the interned env itself. *)
type lowered = iplan

let lower = intern_plan
let skolem_memo () : skmemo = Hashtbl.create 256

let enumerate ~src ?budget ?delta ip stats ~sink =
  enumerate_int ~src ?budget ip ?delta stats ~sink

let emit_cells memo (ip : iplan) k env =
  let em = ip.ip_emits.(k) in
  let tup = em.ie_scratch in
  for i = 0 to Array.length em.ie_cells - 1 do
    match em.ie_cells.(i) with
    | IcNull _ -> invalid_arg "Engine.emit_cells: anonymous null"
    | cell -> tup.(i) <- emit_code memo [||] env cell
  done;
  tup

let pp_report ppf r =
  Fmt.pf ppf "@[<v>rounds: %d%s  egd merges: %d  swept: %d  %.3f ms@,"
    r.r_rounds
    (if r.r_complete then "" else " (bounded)")
    r.r_egd_merges r.r_sweep_dropped (1000. *. r.r_seconds);
  List.iter
    (fun (name, st) -> Fmt.pf ppf "%-24s %a@," name Obs.pp_stats st)
    r.r_stats;
  Fmt.pf ppf "%a@," Obs.pp_shard_view r.r_shards;
  Fmt.pf ppf "target tuples: %d@]" (Instance.total_tuples r.r_target)
