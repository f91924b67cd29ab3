module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Intern = Smg_relational.Intern
module Colstore = Smg_relational.Colstore
module Dependency = Smg_cq.Dependency
module Budget = Smg_robust.Budget

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
  mutable s_delta : int list;  (* row ids new/changed this round, newest first *)
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
    s_delta = [];
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
          s_delta = [];
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

type iemit = { ie_pred : string; ie_cells : icell array; ie_scratch : int array }

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
}

(* The scratch fields ([ic_scratch], [ip_exenv], [ip_trail],
   [ie_scratch]) are reused across triggers so the hot loops allocate
   nothing per row; they are touched only by [satisfied]/[fire], which
   run on the caller domain. *)
type iplan = {
  ip_name : string;
  ip_nslots : int;
  ip_scans : iscan array;
  ip_emits : iemit array;
  ip_checks : icheck array;
  ip_nnulls : int;
  ip_nex : int;
  ip_exenv : int array;  (* existential wildcard bindings *)
  ip_trail : int array;  (* wildcards bound by the current check row *)
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
  }

(* ---- probing ------------------------------------------------------------ *)

(* Candidate rows whose [cols] cells equal [codes], passed to [f] in
   bucket (or arena) order; [f] returns [true] to stop the walk. The
   walk follows the index's bucket chain in place (no candidate list is
   built). A bucket may hold rows with other cell values, and rows
   tombstoned since the last relink, so every candidate is re-verified
   here by int compare before reaching [f]. [tick] runs per candidate
   considered (budget accounting: one tick per bucket tuple). Returns
   whether any candidate matched. [cache = false] guarantees the probe
   never mutates the store: required by the parallel scan phase, where
   worker domains probe concurrently and only pre-built indexes may be
   used. *)
let probe_iter ?(cache = true) st (cols : int array) (codes : int array) ~tick
    ~f =
  let cs = st.s_cs in
  let data = Colstore.data cs in
  let ar = Colstore.arity cs in
  let check_dead = Colstore.dead cs > 0 in
  let ncols = Array.length cols in
  let hit = ref false in
  (* true when [f] stops the walk *)
  let consider row =
    tick ();
    ((not check_dead) || Colstore.is_live cs row)
    &&
    let base = row * ar in
    let i = ref 0 in
    while
      !i < ncols
      && Array.unsafe_get data (base + Array.unsafe_get cols !i)
         = Array.unsafe_get codes !i
    do
      incr i
    done;
    !i = ncols
    &&
    (hit := true;
     f row)
  in
  let rec walk ix row =
    if row >= 0 && not (consider row) then walk ix (Colstore.next ix row)
  in
  let probe ix = walk ix (Colstore.first ix codes) in
  (match Colstore.find_index cs cols with
  | Some ix -> probe ix
  | None ->
      if (not cache) || Colstore.count cs < index_threshold then begin
        let n = Colstore.rows cs in
        let rec scan row =
          if row < n && not (consider row) then scan (row + 1)
        in
        scan 0
      end
      else probe (Colstore.ensure_index cs cols));
  !hit

(* ---- satisfaction check ------------------------------------------------- *)

(* A ground Skolem term's interned code, through the per-engine memo.
   A miss falls back to [Chase.skolem_term] — the global table keeps
   one labelled null per ground term across engines and the verifier's
   chase — then caches its code keyed by the interned argument codes,
   so recurrences never render the term string again. Caller-domain
   only, like null minting. *)
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

(* Restricted-chase trigger test: does some assignment of the
   existential wildcards extend [env] so every rhs atom is present?
   Skolem cells are computed from [env], not wildcarded. Backtracking
   over the check templates; each template probes the target store on
   its statically-known positions. *)
let satisfied ?(cache = true) e (ip : iplan) (env : int array)
    (stats : Obs.tstats) =
  let exenv = ip.ip_exenv and trail = ip.ip_trail in
  Array.fill exenv 0 (Array.length exenv) unbound;
  let tn = ref 0 in
  let cell_code cell =
    match cell with
    | IkSlot s -> env.(s)
    | IkConst c -> c
    | IkSkolem (f, args) -> skolem_cell_code e.e_skmemo env f args
    | IkEx x ->
        (* probe positions are statically known to be bound *)
        assert (exenv.(x) <> unbound);
        exenv.(x)
  in
  let nchecks = Array.length ip.ip_checks in
  let rec go ci =
    ci = nchecks
    ||
    let ck = ip.ip_checks.(ci) in
    let st = Hashtbl.find e.e_tgt ck.ic_pred in
    let cs = st.s_cs in
    let data = Colstore.data cs in
    let ar = Colstore.arity cs in
    let ncells = Array.length ck.ic_cells in
    let try_row row =
      let base = row * ar in
      let t0 = !tn in
      let rec cells pos =
        pos = ncells
        ||
        let v = Array.unsafe_get data (base + pos) in
        (match ck.ic_cells.(pos) with
        | IkSlot s -> v = env.(s)
        | IkConst c -> v = c
        | IkSkolem (f, args) -> v = skolem_cell_code e.e_skmemo env f args
        | IkEx x ->
            if exenv.(x) <> unbound then v = exenv.(x)
            else begin
              exenv.(x) <- v;
              trail.(!tn) <- x;
              incr tn;
              true
            end)
        && cells (pos + 1)
      in
      if cells 0 && go (ci + 1) then true
      else begin
        (* unwind this row's wildcard bindings *)
        while !tn > t0 do
          decr tn;
          exenv.(trail.(!tn)) <- unbound
        done;
        false
      end
    in
    if Array.length ck.ic_probe = 0 then begin
      let check_dead = Colstore.dead cs > 0 in
      let found = ref false in
      let row = ref 0 in
      let n = Colstore.rows cs in
      while (not !found) && !row < n do
        if ((not check_dead) || Colstore.is_live cs !row) && try_row !row then
          found := true;
        incr row
      done;
      !found
    end
    else begin
      stats.Obs.st_probes <- stats.Obs.st_probes + 1;
      let codes = ck.ic_scratch in
      Array.iteri
        (fun j p -> codes.(j) <- cell_code ck.ic_cells.(p))
        ck.ic_probe;
      let found = ref false in
      let hit =
        probe_iter ~cache st ck.ic_probe codes
          ~tick:(fun () -> ())
          ~f:(fun row ->
            found := try_row row;
            !found)
      in
      if hit then stats.Obs.st_hits <- stats.Obs.st_hits + 1
      else stats.Obs.st_misses <- stats.Obs.st_misses + 1;
      !found
    end
  in
  go 0

(* ---- firing ------------------------------------------------------------- *)

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
    let nulls = Array.init ip.ip_nnulls (fun _ -> mint_null_code e) in
    stats.Obs.st_nulls <- stats.Obs.st_nulls + ip.ip_nnulls;
    Array.iter
      (fun em ->
        let tup = em.ie_scratch in
        Array.iteri
          (fun i cell ->
            tup.(i) <-
              (match cell with
              | IcSlot s -> env.(s)
              | IcConst c -> c
              | IcNull k -> nulls.(k)
              | IcSkolem (f, args) -> skolem_cell_code e.e_skmemo env f args))
          em.ie_cells;
        let st = Hashtbl.find e.e_tgt em.ie_pred in
        match Colstore.insert st.s_cs tup with
        | Some row ->
            st.s_delta <- row :: st.s_delta;
            stats.Obs.st_emitted <- stats.Obs.st_emitted + 1
        | None -> ())
      ip.ip_emits
  end

(* ---- plan evaluation ---------------------------------------------------- *)

(* [delta]: when [Some (i, rows)], scan step [i] iterates only the given
   coded tuples — the semi-naive restriction (egd re-fires, lib/delta
   batches). [range]: restrict scan 0 to arena rows [lo, hi) — how the
   parallel pass hands each worker a contiguous driving chunk. [src]
   maps a predicate to its store. [sink] consumes each completed
   binding; the env array is reused across bindings. *)
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
  let tick () =
    match budget with Some b -> Budget.tick_exn b | None -> ()
  in
  let bval b = match b with IbSlot s -> env.(s) | IbConst c -> c in
  let rec step i =
    if i = nscans then sink env
    else begin
      let sc = ip.ip_scans.(i) in
      let use_delta = match delta with Some (j, _) -> j = i | None -> false in
      if use_delta then begin
        let rows = match delta with Some (_, ts) -> ts | None -> [] in
        let neqs = Array.length sc.is_eqs in
        let nself = Array.length sc.is_selfeqs in
        List.iter
          (fun (cells : int array) ->
            tick ();
            stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
            let ok = ref true in
            for j = 0 to neqs - 1 do
              let pos, b = sc.is_eqs.(j) in
              if cells.(pos) <> bval b then ok := false
            done;
            for j = 0 to nself - 1 do
              let pos, p0 = sc.is_selfeqs.(j) in
              if cells.(pos) <> cells.(p0) then ok := false
            done;
            if !ok then begin
              Array.iter (fun (pos, s) -> env.(s) <- cells.(pos)) sc.is_binds;
              step (i + 1)
            end)
          rows
      end
      else begin
        let st = src sc.is_pred in
        let cs = st.s_cs in
        let data = Colstore.data cs in
        let ar = Colstore.arity cs in
        let nself = Array.length sc.is_selfeqs in
        let selfeqs_ok base =
          let ok = ref true in
          for j = 0 to nself - 1 do
            let pos, p0 = sc.is_selfeqs.(j) in
            if
              Array.unsafe_get data (base + pos)
              <> Array.unsafe_get data (base + p0)
            then ok := false
          done;
          !ok
        in
        let bind base =
          Array.iter
            (fun (pos, s) -> env.(s) <- Array.unsafe_get data (base + pos))
            sc.is_binds
        in
        if i = 0 && range <> None then begin
          (* chunked driving scan: verify eq constraints inline (at scan
             0 they can only be constants) instead of probing, so the
             row range is respected *)
          let lo, hi = match range with Some r -> r | None -> (0, 0) in
          let check_dead = Colstore.dead cs > 0 in
          let neqs = Array.length sc.is_eqs in
          for row = lo to hi - 1 do
            tick ();
            stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
            if (not check_dead) || Colstore.is_live cs row then begin
              let base = row * ar in
              let ok = ref true in
              for j = 0 to neqs - 1 do
                let pos, b = sc.is_eqs.(j) in
                if Array.unsafe_get data (base + pos) <> bval b then
                  ok := false
              done;
              if !ok && selfeqs_ok base then begin
                bind base;
                step (i + 1)
              end
            end
          done
        end
        else if Array.length sc.is_eqs = 0 then begin
          let check_dead = Colstore.dead cs > 0 in
          for row = 0 to Colstore.rows cs - 1 do
            tick ();
            stats.Obs.st_scanned <- stats.Obs.st_scanned + 1;
            if (not check_dead) || Colstore.is_live cs row then begin
              let base = row * ar in
              if selfeqs_ok base then begin
                bind base;
                step (i + 1)
              end
            end
          done
        end
        else begin
          stats.Obs.st_probes <- stats.Obs.st_probes + 1;
          let codes = codes_scratch.(i) in
          Array.iteri (fun j (_, b) -> codes.(j) <- bval b) sc.is_eqs;
          let hit =
            probe_iter ~cache st sc.is_cols codes ~tick ~f:(fun row ->
                let base = row * ar in
                if selfeqs_ok base then begin
                  bind base;
                  step (i + 1)
                end;
                false)
          in
          if hit then stats.Obs.st_hits <- stats.Obs.st_hits + 1
          else stats.Obs.st_misses <- stats.Obs.st_misses + 1
        end
      end
    end
  in
  if nscans > 0 then step 0

let eval_plan ?budget ?(cache = true) ?sink e (ip : iplan) ?delta
    (stats : Obs.tstats) =
  let sink =
    match sink with
    | Some f -> f
    | None -> fun env -> fire ?budget e ip env stats
  in
  enumerate_int ~src:(src_store e) ?budget ~cache ip ?delta stats ~sink

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

(* The key egds' substitution, null code -> code: open addressing with
   linear probing over flat int arrays. Keys are null codes, all
   negative, so [0] marks an empty slot. No key ever maps to itself. *)
module Subst = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable size : int;
  }

  let create () = { keys = Array.make 16 0; vals = Array.make 16 0; size = 0 }

  (* the slot holding [k], or the empty slot where it belongs *)
  let slot t k =
    let mask = Array.length t.keys - 1 in
    let i = ref (Colstore.spread k land mask) in
    while
      let x = Array.unsafe_get t.keys !i in
      x <> 0 && x <> k
    do
      i := (!i + 1) land mask
    done;
    !i

  (* [k]'s binding, or [k] itself when unbound *)
  let find t k =
    if t.size = 0 then k
    else
      let i = slot t k in
      if Array.unsafe_get t.keys i = 0 then k else Array.unsafe_get t.vals i

  let rec replace t k v =
    let i = slot t k in
    if t.keys.(i) <> 0 then t.vals.(i) <- v
    else if (t.size + 1) * 2 > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) 0;
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.size <- 0;
      Array.iteri (fun j x -> if x <> 0 then replace t x vals.(j)) keys;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.size <- t.size + 1
    end
end

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
  let subst = Subst.create () in
  let rec resolve c =
    if c >= 0 then c
    else
      let c' = Subst.find subst c in
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
   (dedup through the fresh membership shards), changed rows become the
   store's delta for semi-naive re-firing, and cached indexes are
   dropped (rebuilt lazily). Rebuilt stores are always tracked — this
   is where source stores pay for membership. *)
let apply_subst e subst =
  let rec resolve c =
    if c >= 0 then c
    else
      let c' = Subst.find subst c in
      if c' = c then c else resolve c'
  in
  let rewrite _name st =
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
        | Some nrow -> if !touched then delta := nrow :: !delta
        | None -> ());
    st.s_cs <- ncs;
    st.s_delta <- !delta
  in
  Hashtbl.iter rewrite e.e_src;
  Hashtbl.iter rewrite e.e_tgt

let clear_deltas e =
  Hashtbl.iter (fun _ st -> st.s_delta <- []) e.e_src;
  Hashtbl.iter (fun _ st -> st.s_delta <- []) e.e_tgt

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
  Array.init ar (fun i -> Intern.value data.(base + i))

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
    let t0 = Unix.gettimeofday () in
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
             Obs.time (fun () ->
                 match pool with
                 | Some pool -> eval_plan_parallel pool ?budget e ip st
                 | None -> eval_plan ?budget e ip st)
           in
           st.Obs.st_seconds <- st.Obs.st_seconds +. dt)
         iplans stats;
       clear_deltas e;
       let continue_ = ref true in
       while !continue_ && !failed = None do
         match egd_pass e with
         | EgdConflict msg -> failed := Some msg
         | EgdSubst (_, 0) -> continue_ := false
         | EgdSubst (subst, n) ->
             egd_merges := !egd_merges + n;
             apply_subst e subst;
             incr rounds;
             if !rounds > max_rounds then begin
               complete := false;
               continue_ := false
             end
             else begin
               (* semi-naive: re-fire each plan only through scan steps
                  whose relation has changed tuples *)
               let deltas = Hashtbl.create 8 in
               Hashtbl.iter
                 (fun name st ->
                   if st.s_delta <> [] then
                     Hashtbl.replace deltas name
                       (List.rev_map (Colstore.row_cells st.s_cs) st.s_delta))
                 e.e_src;
               clear_deltas e;
               List.iter2
                 (fun (ip : iplan) (_, st) ->
                   step ();
                   let (), dt =
                     Obs.time (fun () ->
                         Array.iteri
                           (fun i (sc : iscan) ->
                             match Hashtbl.find_opt deltas sc.is_pred with
                             | Some ts ->
                                 eval_plan ?budget e ip ~delta:(i, ts) st
                             | None -> ())
                           ip.ip_scans)
                   in
                   st.Obs.st_seconds <- st.Obs.st_seconds +. dt)
                 iplans stats;
               clear_deltas e
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
            r_seconds = Unix.gettimeofday () -. t0;
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
    { s_header = header; s_cs = cs; s_delta = [] }

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
  Array.iteri
    (fun i cell ->
      tup.(i) <-
        (match cell with
        | IcSlot s -> env.(s)
        | IcConst c -> c
        | IcSkolem (f, args) -> skolem_cell_code memo env f args
        | IcNull _ -> invalid_arg "Engine.emit_cells: anonymous null"))
    em.ie_cells;
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
