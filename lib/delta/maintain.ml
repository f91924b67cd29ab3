module Value = Smg_relational.Value
module Schema = Smg_relational.Schema
module Instance = Smg_relational.Instance
module Intern = Smg_relational.Intern
module Colstore = Smg_relational.Colstore
module Engine = Smg_exchange.Engine
module Plan = Smg_exchange.Plan
module Obs = Smg_exchange.Obs
module Stores = Engine.Stores
module Clock = Smg_robust.Clock
module Fault = Smg_robust.Fault

(* Hash tables keyed on interned tuples, hashed like the columnar
   stores' membership tables. *)
module Codes = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash = Colstore.hash_cells
end)

(* ---- counters ----------------------------------------------------------- *)

type counters = {
  mc_src_inserted : int;
  mc_src_deleted : int;
  mc_triggers_seen : int;
  mc_triggers_fired : int;
  mc_facts_added : int;
  mc_facts_retracted : int;
  mc_nulls_minted : int;
  mc_nulls_collected : int;
  mc_egd_merges : int;
  mc_egd_rebuilds : int;
  mc_full_rebuilds : int;
  mc_egd_checked : int;
  mc_seconds : float;
}

let zero_counters =
  {
    mc_src_inserted = 0;
    mc_src_deleted = 0;
    mc_triggers_seen = 0;
    mc_triggers_fired = 0;
    mc_facts_added = 0;
    mc_facts_retracted = 0;
    mc_nulls_minted = 0;
    mc_nulls_collected = 0;
    mc_egd_merges = 0;
    mc_egd_rebuilds = 0;
    mc_full_rebuilds = 0;
    mc_egd_checked = 0;
    mc_seconds = 0.;
  }

let add_counters a b =
  {
    mc_src_inserted = a.mc_src_inserted + b.mc_src_inserted;
    mc_src_deleted = a.mc_src_deleted + b.mc_src_deleted;
    mc_triggers_seen = a.mc_triggers_seen + b.mc_triggers_seen;
    mc_triggers_fired = a.mc_triggers_fired + b.mc_triggers_fired;
    mc_facts_added = a.mc_facts_added + b.mc_facts_added;
    mc_facts_retracted = a.mc_facts_retracted + b.mc_facts_retracted;
    mc_nulls_minted = a.mc_nulls_minted + b.mc_nulls_minted;
    mc_nulls_collected = a.mc_nulls_collected + b.mc_nulls_collected;
    mc_egd_merges = a.mc_egd_merges + b.mc_egd_merges;
    mc_egd_rebuilds = a.mc_egd_rebuilds + b.mc_egd_rebuilds;
    mc_full_rebuilds = a.mc_full_rebuilds + b.mc_full_rebuilds;
    mc_egd_checked = a.mc_egd_checked + b.mc_egd_checked;
    mc_seconds = a.mc_seconds +. b.mc_seconds;
  }

(* per-apply accumulator, folded into [counters] at the end *)
type acc = {
  mutable a_src_ins : int;
  mutable a_src_del : int;
  mutable a_seen : int;
  mutable a_fired : int;
  mutable a_fadd : int;
  mutable a_fret : int;
  mutable a_nmint : int;
  mutable a_ncoll : int;
  mutable a_emerge : int;
  mutable a_erebuild : int;
  mutable a_frebuild : int;
  mutable a_echecked : int;
  mutable a_keyed_retract : bool;
  a_dedup : unit Codes.t;  (* canonical keys of multiply-fresh triggers *)
}

let fresh_acc () =
  {
    a_src_ins = 0;
    a_src_del = 0;
    a_seen = 0;
    a_fired = 0;
    a_fadd = 0;
    a_fret = 0;
    a_nmint = 0;
    a_ncoll = 0;
    a_emerge = 0;
    a_erebuild = 0;
    a_frebuild = 0;
    a_echecked = 0;
    a_keyed_retract = false;
    a_dedup = Codes.create 8;
  }

let counters_of acc seconds =
  {
    mc_src_inserted = acc.a_src_ins;
    mc_src_deleted = acc.a_src_del;
    mc_triggers_seen = acc.a_seen;
    mc_triggers_fired = acc.a_fired;
    mc_facts_added = acc.a_fadd;
    mc_facts_retracted = acc.a_fret;
    mc_nulls_minted = acc.a_nmint;
    mc_nulls_collected = acc.a_ncoll;
    mc_egd_merges = acc.a_emerge;
    mc_egd_rebuilds = acc.a_erebuild;
    mc_full_rebuilds = acc.a_frebuild;
    mc_egd_checked = acc.a_echecked;
    mc_seconds = seconds;
  }

(* ---- state -------------------------------------------------------------- *)

(* A canonical (pre-egd) target table. Its facts are the rows of a
   tracked columnar store, in creation order: a retracted fact's row is
   tombstoned and a revived fact appended, so arena order is the
   materialization order. Each row carries its support count: the
   number of live (derivation, emission) pairs producing it. *)
type facts_tbl = {
  fb_name : string;
  fb_cols : string array;
  mutable fb_cs : Colstore.t;
  mutable fb_supp : int array;  (* by arena row *)
  fb_key : int array;  (* key positions; empty when unkeyed *)
  fb_is_key : bool array;
  mutable fb_egd : int Codes.t;
      (* key-egd index: resolved key -> the earliest live row with it.
         Valid while the substitution gains no binding: every full egd
         pass rebuilds it *)
  mutable fb_fresh : int list;  (* keyed only: rows this batch added, newest first *)
}

(* A recorded trigger: the fact row each emission produced. A fact is
   only retracted once its last derivation has died, so the rows stay
   live while the derivation does; only compaction renumbers them. *)
type deriv = {
  dv_tbls : facts_tbl array;  (* per emission; shared by the plan *)
  dv_rows : int array;
  mutable dv_mark : int;
      (* -1 once dead, else the compaction epoch its rows are numbered in *)
}

type src_tbl = {
  sr_name : string;
  sr_header : string list;
  mutable sr_store : Stores.t;
  mutable sr_derivs : deriv list array;
      (* by arena row: the derivations the row takes part in (dead ones
         linger until the row is deleted or the facts compact) *)
  mutable sr_mark : int;
      (* arena rows before this batch's inserts: rows from here on are
         fresh *)
}

(* How to rebuild the source tuple a scan step matched, from the
   completed env: every scan position is statically a bound slot, a
   constant, or a copy of an earlier position (the compiler covers all
   of them), so the trigger's source tuples need no storage. *)
type cell_src = TFill of int | TLit of int | TCopy of int

type plan_info = {
  pi_plan : Plan.t;
  pi_low : Engine.lowered;
  pi_id : int;  (* the tgd's position: shared by its delta variants *)
  pi_stats : Obs.tstats;
  pi_scans : (src_tbl * cell_src array * int array) array;
      (* per scan: table, tuple template, scratch tuple *)
  pi_emits : facts_tbl array;
  pi_perm : int array;
      (* slots in variable-name order: the bulk plan and its per-atom
         delta variants number slots differently (scan order differs),
         so trigger keys are taken through this permutation to make the
         same logical trigger hash identically everywhere *)
}

type state = {
  ms_compiled : Engine.compiled;
  ms_shards : int;  (* membership partition count of the source stores *)
  ms_plans : plan_info list;
  ms_delta : plan_info list list;
      (* per plan, the reordered variants (scan 0 = one lhs atom each);
         stats are shared with the base plan_info *)
  ms_srcs : src_tbl list;  (* source schema order *)
  ms_src : (string, src_tbl) Hashtbl.t;
  ms_tgts : facts_tbl list;  (* target schema order *)
  ms_keyed : facts_tbl list;
  ms_skmemo : Engine.skmemo;
  mutable ms_nderivs : int;  (* live derivations *)
  mutable ms_epoch : int;  (* fact-row compactions so far *)
  ms_null_occ : (int, int) Hashtbl.t;  (* null code -> occurrences in facts *)
  ms_src_nulls : (int, int) Hashtbl.t;  (* null code -> occurrences in source *)
  ms_subst : (int, int) Hashtbl.t;  (* key-egd bindings: null code -> code *)
  mutable ms_batches : int;
  mutable ms_totals : counters;
  mutable ms_poisoned : string option;
}

exception Internal of string
exception Conflict of string
exception Invalid of string  (* bad batch op: rejected before any mutation *)

(* ---- null / fact bookkeeping -------------------------------------------- *)

let bump tbl k d =
  let v = match Hashtbl.find_opt tbl k with Some v -> v | None -> 0 in
  let v' = v + d in
  if v' <= 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k v';
  (v, v')

let note_src_cells st cells d =
  Array.iter
    (fun c -> if Intern.is_null_code c then ignore (bump st.ms_src_nulls c d))
    cells

let grown a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_fact st acc fb cells =
  match Colstore.find_row fb.fb_cs cells with
  | Some row ->
      fb.fb_supp.(row) <- fb.fb_supp.(row) + 1;
      row
  | None ->
      let row =
        match Colstore.insert fb.fb_cs cells with
        | Some row -> row
        | None -> raise (Internal ("fact store out of sync in " ^ fb.fb_name))
      in
      fb.fb_supp <- grown fb.fb_supp (row + 1) 0;
      fb.fb_supp.(row) <- 1;
      acc.a_fadd <- acc.a_fadd + 1;
      if Array.length fb.fb_key > 0 then fb.fb_fresh <- row :: fb.fb_fresh;
      Array.iter
        (fun c ->
          if Intern.is_null_code c then begin
            let old, _ = bump st.ms_null_occ c 1 in
            if old = 0 then acc.a_nmint <- acc.a_nmint + 1
          end)
        cells;
      row

(* ---- key-egd layer ------------------------------------------------------ *)

let rec resolve st c =
  if c >= 0 then c
  else
    match Hashtbl.find_opt st.ms_subst c with
    | Some c' -> resolve st c'
    | None -> c

let resolved_key st fb row =
  let data = Colstore.data fb.fb_cs and ar = Colstore.arity fb.fb_cs in
  Array.map (fun p -> resolve st data.((row * ar) + p)) fb.fb_key

let retract_fact st acc fb row =
  if Array.length fb.fb_key > 0 then begin
    acc.a_keyed_retract <- true;
    (* under a non-empty substitution another live row may share this
       key; the retraction then recomputes the substitution, and with
       it the index *)
    let k = resolved_key st fb row in
    match Codes.find_opt fb.fb_egd k with
    | Some r when r = row -> Codes.remove fb.fb_egd k
    | _ -> ()
  end;
  let cells = Colstore.row_cells fb.fb_cs row in
  ignore (Colstore.remove fb.fb_cs cells);
  acc.a_fret <- acc.a_fret + 1;
  Array.iter
    (fun c ->
      if Intern.is_null_code c then begin
        let _, now = bump st.ms_null_occ c (-1) in
        if now = 0 then acc.a_ncoll <- acc.a_ncoll + 1
      end)
    cells

type egd_out = { mutable merges : int; mutable src_null : bool }

(* Check one fact against its table's key-egd index: the first live
   fact with a resolved key is the group's representative, a later one
   gets its non-key columns unified with it. A binding that hits a null
   also occurring in the source sets [src_null] (the caller must then
   fall back to a full rebuild: resolving the source can create
   triggers the un-resolved enumeration never saw). Raises {!Conflict}
   on a constant/constant clash. *)
let egd_check st acc out fb idx row =
  acc.a_echecked <- acc.a_echecked + 1;
  let k = resolved_key st fb row in
  match Codes.find_opt idx k with
  | None -> Codes.replace idx k row
  | Some rep ->
      let data = Colstore.data fb.fb_cs and ar = Colstore.arity fb.fb_cs in
      Array.iteri
        (fun i is_key ->
          if not is_key then begin
            let ru = resolve st data.((rep * ar) + i)
            and rv = resolve st data.((row * ar) + i) in
            if ru <> rv then begin
              let bind k other =
                Hashtbl.replace st.ms_subst k other;
                out.merges <- out.merges + 1;
                acc.a_emerge <- acc.a_emerge + 1;
                if Hashtbl.mem st.ms_src_nulls k then out.src_null <- true
              in
              if Intern.is_null_code ru then bind ru rv
              else if Intern.is_null_code rv then bind rv ru
              else
                raise
                  (Conflict
                     (Printf.sprintf "key egd on %s.%s: %s vs %s" fb.fb_name
                        fb.fb_cols.(i)
                        (Value.to_string (Intern.value ru))
                        (Value.to_string (Intern.value rv))))
            end
          end)
        fb.fb_is_key

(* Every live fact of every keyed table, into fresh indexes. *)
let egd_full_pass st acc out =
  List.iter
    (fun fb ->
      let idx = Codes.create (Colstore.count fb.fb_cs + 1) in
      Colstore.iter_live fb.fb_cs (fun row -> egd_check st acc out fb idx row);
      fb.fb_egd <- idx;
      fb.fb_fresh <- [])
    st.ms_keyed

(* Only the facts this batch added, against the standing indexes: the
   old facts already agree with each other, so this is all a full pass
   would unify as long as it binds nothing. *)
let egd_seed_pass st acc out =
  List.iter
    (fun fb ->
      let fresh = List.rev fb.fb_fresh in
      fb.fb_fresh <- [];
      List.iter
        (fun row ->
          if Colstore.is_live fb.fb_cs row then
            egd_check st acc out fb fb.fb_egd row)
        fresh)
    st.ms_keyed

(* Fixpoint: a first pass (full, or seeded from the batch's facts);
   any new binding can cascade (resolved keys elsewhere may now
   collide), so a productive pass escalates to full passes until quiet.
   Returns whether any binding hit a source null. *)
let egd_fixpoint st acc ~full =
  let out = { merges = 0; src_null = false } in
  if full then egd_full_pass st acc out else egd_seed_pass st acc out;
  while out.merges > 0 do
    out.merges <- 0;
    egd_full_pass st acc out
  done;
  out.src_null

(* ---- derivation recording ----------------------------------------------- *)

let src_row (sr, tpl, out) env =
  Array.iteri
    (fun i c ->
      match c with
      | TFill s -> out.(i) <- env.(s)
      | TLit v -> out.(i) <- v
      | TCopy _ -> ())
    tpl;
  Array.iteri
    (fun i c -> match c with TCopy p -> out.(i) <- out.(p) | _ -> ())
    tpl;
  match Stores.find_row sr.sr_store out with
  | Some row -> row
  | None -> raise (Internal ("trigger over an absent tuple of " ^ sr.sr_name))

(* Every trigger enumerated from a batch holds a fresh tuple, so it is
   new — except that one with fresh tuples in several atoms is found
   once per such atom: those are deduplicated per batch by their
   canonical key. *)
let record_trigger st acc pi env =
  acc.a_seen <- acc.a_seen + 1;
  let rows = Array.map (fun sc -> src_row sc env) pi.pi_scans in
  let fresh = ref 0 in
  Array.iteri
    (fun i (sr, _, _) -> if rows.(i) >= sr.sr_mark then incr fresh)
    pi.pi_scans;
  let dup =
    !fresh >= 2
    &&
    let k =
      Array.init
        (Array.length pi.pi_perm + 1)
        (fun i -> if i = 0 then pi.pi_id else env.(pi.pi_perm.(i - 1)))
    in
    Codes.mem acc.a_dedup k || (Codes.replace acc.a_dedup k (); false)
  in
  if not dup then begin
    acc.a_fired <- acc.a_fired + 1;
    let d =
      {
        dv_tbls = pi.pi_emits;
        dv_rows =
          Array.mapi
            (fun k fb ->
              add_fact st acc fb (Engine.emit_cells st.ms_skmemo pi.pi_low k env))
            pi.pi_emits;
        dv_mark = st.ms_epoch;
      }
    in
    st.ms_nderivs <- st.ms_nderivs + 1;
    Array.iteri
      (fun i (sr, _, _) ->
        let r = rows.(i) in
        sr.sr_derivs <- grown sr.sr_derivs (r + 1) [];
        sr.sr_derivs.(r) <- d :: sr.sr_derivs.(r))
      pi.pi_scans
  end

let kill_src_row st acc sr cells row =
  note_src_cells st cells (-1);
  if row < Array.length sr.sr_derivs then begin
    let ds = sr.sr_derivs.(row) in
    sr.sr_derivs.(row) <- [];
    List.iter
      (fun d ->
        if d.dv_mark >= 0 then begin
          d.dv_mark <- -1;
          st.ms_nderivs <- st.ms_nderivs - 1;
          Array.iteri
            (fun k r ->
              let fb = d.dv_tbls.(k) in
              fb.fb_supp.(r) <- fb.fb_supp.(r) - 1;
              if fb.fb_supp.(r) = 0 then retract_fact st acc fb r)
            d.dv_rows
        end)
      ds
  end

(* Retracted facts leave tombstoned rows behind. Once those outnumber
   the live facts and derivations, each fact table with dead rows is
   rebuilt from its live rows (arena order kept) and the rows that
   derivations and egd indexes hold are renumbered; the same walk drops
   dead derivations from the source rows' lists. Amortized O(1) per
   retraction, and memory stays proportional to the live state. *)
let compact_facts st =
  let count f = List.fold_left (fun n fb -> n + f fb.fb_cs) 0 st.ms_tgts in
  if count Colstore.dead > max 1024 (st.ms_nderivs + count Colstore.count)
  then begin
    let remaps =
      List.filter_map
        (fun fb ->
          let cs = fb.fb_cs in
          if Colstore.dead cs = 0 then None
          else begin
            let remap = Array.make (Colstore.rows cs) (-1) in
            let ncs =
              Colstore.create ~shards:1 ~arity:(Colstore.arity cs)
                (Colstore.count cs)
            in
            let supp = Array.make (max 64 (Colstore.count cs)) 0 in
            Colstore.iter_live cs (fun row ->
                match Colstore.insert ncs (Colstore.row_cells cs row) with
                | Some r ->
                    remap.(row) <- r;
                    supp.(r) <- fb.fb_supp.(row)
                | None -> raise (Internal ("duplicate fact in " ^ fb.fb_name)));
            fb.fb_cs <- ncs;
            fb.fb_supp <- supp;
            Codes.filter_map_inplace
              (fun _ row -> if remap.(row) < 0 then None else Some remap.(row))
              fb.fb_egd;
            Some (fb, remap)
          end)
        st.ms_tgts
    in
    st.ms_epoch <- st.ms_epoch + 1;
    let renumber d =
      if d.dv_mark <> st.ms_epoch then begin
        d.dv_mark <- st.ms_epoch;
        Array.iteri
          (fun k r ->
            match List.assq_opt d.dv_tbls.(k) remaps with
            | Some remap -> d.dv_rows.(k) <- remap.(r)
            | None -> ())
          d.dv_rows
      end
    in
    List.iter
      (fun sr ->
        Array.iteri
          (fun i ds ->
            if ds <> [] then
              sr.sr_derivs.(i) <-
                List.filter
                  (fun d ->
                    d.dv_mark >= 0
                    && begin
                         renumber d;
                         true
                       end)
                  ds)
          sr.sr_derivs)
      st.ms_srcs
  end

(* ---- loading / rebuilds ------------------------------------------------- *)

let header_of (tbl : Schema.table) =
  List.map (fun c -> c.Schema.col_name) tbl.Schema.columns

let perm_of (p : Plan.t) =
  let idx = Array.init (Array.length p.Plan.p_slot_names) (fun i -> i) in
  Array.sort
    (fun a b ->
      String.compare p.Plan.p_slot_names.(a) p.Plan.p_slot_names.(b))
    idx;
  idx

let scan_template srcs (sc : Plan.scan) =
  let sr = Hashtbl.find srcs sc.Plan.sc_pred in
  let arity = List.length sr.sr_header in
  let tpl = Array.make arity (TCopy (-1)) in
  List.iter
    (fun (pos, b) ->
      tpl.(pos) <-
        (match b with
        | Plan.Slot s -> TFill s
        | Plan.Const c -> TLit (Intern.code c)))
    sc.Plan.sc_eqs;
  List.iter (fun (pos, s) -> tpl.(pos) <- TFill s) sc.Plan.sc_binds;
  List.iter (fun (pos, p0) -> tpl.(pos) <- TCopy p0) sc.Plan.sc_selfeqs;
  Array.iter
    (function
      | TCopy -1 -> raise (Internal ("uncovered scan position in " ^ sc.Plan.sc_pred))
      | _ -> ())
    tpl;
  (sr, tpl, Array.make arity 0)

let empty_facts fb =
  fb.fb_cs <-
    Colstore.create ~shards:1 ~arity:(max 1 (Array.length fb.fb_cols)) 64;
  fb.fb_supp <- Array.make 64 0;
  fb.fb_egd <- Codes.create 16;
  fb.fb_fresh <- []

(* Clear every container and re-derive everything from [inst] with a
   full (delta-free) enumeration of each plan. *)
let load st acc inst =
  Hashtbl.reset st.ms_null_occ;
  Hashtbl.reset st.ms_src_nulls;
  Hashtbl.reset st.ms_subst;
  st.ms_nderivs <- 0;
  List.iter
    (fun sr ->
      let r =
        Instance.relation_or_empty inst sr.sr_name ~header:sr.sr_header
      in
      sr.sr_store <-
        Stores.of_tuples ~shards:st.ms_shards ~header:sr.sr_header
          r.Instance.tuples;
      Stores.iter_live sr.sr_store (fun cells -> note_src_cells st cells 1);
      sr.sr_derivs <- Array.make (Stores.rows sr.sr_store) [];
      sr.sr_mark <- max_int)
    st.ms_srcs;
  List.iter empty_facts st.ms_tgts;
  let lookup pred = (Hashtbl.find st.ms_src pred).sr_store in
  List.iter
    (fun pi ->
      let (), dt =
        Clock.time (fun () ->
            Engine.enumerate ~src:lookup pi.pi_low pi.pi_stats
              ~sink:(fun env -> record_trigger st acc pi env))
      in
      pi.pi_stats.Obs.st_seconds <- pi.pi_stats.Obs.st_seconds +. dt)
    st.ms_plans

(* Live rows decoded, in arena order. *)
let decoded cs =
  List.rev
    (Colstore.fold_live cs
       (fun tl row -> Intern.decode_tuple (Colstore.row_cells cs row) :: tl)
       [])

let source st =
  List.fold_left
    (fun acc sr ->
      if Stores.count sr.sr_store = 0 then acc
      else
        Instance.set acc sr.sr_name
          { Instance.header = sr.sr_header; tuples = Stores.tuples sr.sr_store })
    Instance.empty st.ms_srcs

(* The source with the current substitution applied and duplicates
   folded — what the bulk engine would chase after rewriting. Only used
   by the full-rebuild fallback. *)
let resolved_source st =
  List.fold_left
    (fun acc sr ->
      let cs =
        Colstore.create ~shards:1
          ~arity:(max 1 (List.length sr.sr_header))
          (Stores.count sr.sr_store)
      in
      Stores.iter_live sr.sr_store (fun cells ->
          ignore (Colstore.insert cs (Array.map (resolve st) cells)));
      if Colstore.count cs = 0 then acc
      else
        Instance.set acc sr.sr_name
          { Instance.header = sr.sr_header; tuples = decoded cs })
    Instance.empty st.ms_srcs

(* Hash indexes the delta variants will probe, built outside the
   latency-sensitive apply path. [load] replaces the stores, so this
   runs after every (re)load. *)
let prewarm_variants st =
  let lookup pred = (Hashtbl.find st.ms_src pred).sr_store in
  List.iter
    (List.iter (fun vi -> Engine.prewarm ~src:lookup vi.pi_plan))
    st.ms_delta

(* Rebuild everything from the resolved source. Each iteration strictly
   reduces the number of distinct labelled nulls in the source (every
   triggering merge binds at least one of them away), so this
   terminates. *)
let rec full_rebuild st acc =
  acc.a_frebuild <- acc.a_frebuild + 1;
  let inst = resolved_source st in
  load st acc inst;
  if egd_fixpoint st acc ~full:true then full_rebuild st acc
  else prewarm_variants st

(* ---- public construction ------------------------------------------------ *)

let prepare ?card ~source ~target ~mappings () =
  Engine.compile ?card ~laconic:false ~source ~target
    ~mappings:(Skolemize.tgds mappings) ()

let facts_of (tbl : Schema.table) =
  let cols = Array.of_list (header_of tbl) in
  let fb_key =
    Array.of_list
      (List.map
         (fun k ->
           let rec find i = if cols.(i) = k then i else find (i + 1) in
           find 0)
         tbl.Schema.key)
  in
  let fb =
    {
      fb_name = tbl.Schema.tbl_name;
      fb_cols = cols;
      fb_cs = Colstore.create ~shards:1 ~arity:1 0;
      fb_supp = [||];
      fb_key;
      fb_is_key = Array.map (fun c -> List.mem c tbl.Schema.key) cols;
      fb_egd = Codes.create 1;
      fb_fresh = [];
    }
  in
  empty_facts fb;
  fb

let init ?shards compiled inst =
  if compiled.Engine.c_laconic then
    Error "delta maintenance requires non-laconic plans (Maintain.prepare)"
  else if
    List.exists (fun (p : Plan.t) -> p.Plan.p_nnulls > 0)
      compiled.Engine.c_plans
  then
    Error
      "delta maintenance requires skolemized plans (Maintain.prepare): a \
       plan still mints anonymous nulls"
  else begin
    let shards = Engine.resolve_shards ?shards () in
    let srcs =
      List.map
        (fun (tbl : Schema.table) ->
          let header = header_of tbl in
          {
            sr_name = tbl.Schema.tbl_name;
            sr_header = header;
            sr_store = Stores.of_tuples ~shards ~header [];
            sr_derivs = [||];
            sr_mark = max_int;
          })
        compiled.Engine.c_source.Schema.tables
    in
    let src = Hashtbl.create 16 in
    List.iter (fun sr -> Hashtbl.replace src sr.sr_name sr) srcs;
    let tgts = List.map facts_of compiled.Engine.c_target.Schema.tables in
    let tgt = Hashtbl.create 16 in
    List.iter (fun fb -> Hashtbl.replace tgt fb.fb_name fb) tgts;
    match
      let info id stats (p : Plan.t) =
        {
          pi_plan = p;
          pi_low = Engine.lower p;
          pi_id = id;
          pi_stats = stats;
          pi_scans =
            Array.of_list (List.map (scan_template src) p.Plan.p_scans);
          pi_emits =
            Array.of_list
              (List.map
                 (fun (em : Plan.emit) ->
                   match Hashtbl.find_opt tgt em.Plan.em_pred with
                   | Some fb -> fb
                   | None ->
                       raise (Internal ("emission into unknown table " ^ em.Plan.em_pred)))
                 p.Plan.p_emits);
          pi_perm = perm_of p;
        }
      in
      let plans =
        List.mapi (fun i p -> info i (Obs.fresh_tstats ()) p) compiled.Engine.c_plans
      in
      let delta_infos =
        List.map2
          (fun pi variants -> List.map (info pi.pi_id pi.pi_stats) variants)
          plans compiled.Engine.c_delta
      in
      let st =
        {
          ms_compiled = compiled;
          ms_shards = shards;
          ms_plans = plans;
          ms_delta = delta_infos;
          ms_srcs = srcs;
          ms_src = src;
          ms_tgts = tgts;
          ms_keyed = List.filter (fun fb -> Array.length fb.fb_key > 0) tgts;
          ms_skmemo = Engine.skolem_memo ();
          ms_nderivs = 0;
          ms_epoch = 0;
          ms_null_occ = Hashtbl.create 256;
          ms_src_nulls = Hashtbl.create 16;
          ms_subst = Hashtbl.create 16;
          ms_batches = 0;
          ms_totals = zero_counters;
          ms_poisoned = None;
        }
      in
      let acc = fresh_acc () in
      let (), dt =
        Clock.time (fun () ->
            load st acc inst;
            if egd_fixpoint st acc ~full:true then full_rebuild st acc
            else prewarm_variants st)
      in
      st.ms_totals <- add_counters st.ms_totals (counters_of acc dt);
      st
    with
    | st -> Ok st
    | exception Conflict msg -> Error msg
    | exception Internal msg -> Error ("internal: " ^ msg)
    | exception Invalid_argument msg -> Error msg
  end

(* ---- apply -------------------------------------------------------------- *)

let validate st ops =
  List.iter
    (fun op ->
      let pred, tup =
        match op with
        | Batch.Insert (p, t) -> (p, t)
        | Batch.Delete (p, t) -> (p, t)
      in
      match Hashtbl.find_opt st.ms_src pred with
      | None -> raise (Invalid (Printf.sprintf "unknown source table %s" pred))
      | Some sr ->
          let n = List.length sr.sr_header in
          if Array.length tup <> n then
            raise
              (Invalid
                 (Printf.sprintf "%s expects %d values, got %d" pred n
                    (Array.length tup))))
    ops

let group_by_table ops pick =
  let groups : (string, int array list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun op ->
      match pick op with
      | Some (pred, cells) -> (
          match Hashtbl.find_opt groups pred with
          | Some l -> l := cells :: !l
          | None -> Hashtbl.replace groups pred (ref [ cells ]))
      | None -> ())
    ops;
  groups

let apply ?fault st batch =
  match st.ms_poisoned with
  | Some msg -> Error ("maintain state poisoned by earlier failure: " ^ msg)
  | None -> (
      (match fault with
      | Some f -> Fault.fire f Fault.Delta_apply
      | None -> ());
      let t0 = Clock.now () in
      let acc = fresh_acc () in
      match
        validate st batch;
        (* deletes first, then inserts: a tuple both deleted and
           inserted in one batch ends up present. Deletes are grouped
           per table so each store is swept once per batch, not once
           per tuple; a tuple with a constant never interned was never
           stored. *)
        let doomed =
          group_by_table batch (function
            | Batch.Delete (pred, tup) ->
                Option.map (fun cells -> (pred, cells)) (Intern.find_tuple tup)
            | Batch.Insert _ -> None)
        in
        Hashtbl.iter
          (fun pred l ->
            let sr = Hashtbl.find st.ms_src pred in
            List.iter
              (fun (cells, row) ->
                acc.a_src_del <- acc.a_src_del + 1;
                kill_src_row st acc sr cells row)
              (Stores.remove_many sr.sr_store (List.rev !l)))
          doomed;
        List.iter (fun sr -> sr.sr_mark <- Stores.rows sr.sr_store) st.ms_srcs;
        let fresh =
          group_by_table batch (function
            | Batch.Insert (pred, tup) ->
                let sr = Hashtbl.find st.ms_src pred in
                let cells = Intern.code_tuple tup in
                if Stores.insert sr.sr_store cells <> None then begin
                  acc.a_src_ins <- acc.a_src_ins + 1;
                  note_src_cells st cells 1;
                  Some (pred, cells)
                end
                else None
            | Batch.Delete _ -> None)
        in
        (* one reordered variant per lhs atom, each driven from the
           tuples newly inserted into that atom's table: every new
           trigger contains at least one fresh tuple, so leading with
           the delta covers them all without re-running the bulk plan's
           join prefix *)
        let lookup pred = (Hashtbl.find st.ms_src pred).sr_store in
        List.iter2
          (fun pi variants ->
            let (), dt =
              Clock.time (fun () ->
                  List.iter
                    (fun vi ->
                      match vi.pi_plan.Plan.p_scans with
                      | [] -> ()
                      | sc0 :: _ -> (
                          match Hashtbl.find_opt fresh sc0.Plan.sc_pred with
                          | Some ts ->
                              Engine.enumerate ~src:lookup
                                ~delta:(0, List.rev !ts) vi.pi_low vi.pi_stats
                                ~sink:(fun env -> record_trigger st acc vi env)
                          | None -> ()))
                    variants)
            in
            pi.pi_stats.Obs.st_seconds <- pi.pi_stats.Obs.st_seconds +. dt)
          st.ms_plans st.ms_delta;
        if st.ms_keyed <> [] then begin
          let src_null =
            if acc.a_keyed_retract && Hashtbl.length st.ms_subst > 0 then begin
              (* which merges the retracted facts justified is ambiguous:
                 recompute the substitution over the surviving facts *)
              Hashtbl.reset st.ms_subst;
              acc.a_erebuild <- acc.a_erebuild + 1;
              egd_fixpoint st acc ~full:true
            end
            else
              (* retraction alone never creates a key collision: only
                 the batch's new facts need checking *)
              egd_fixpoint st acc ~full:false
          in
          if src_null then full_rebuild st acc
        end;
        compact_facts st
      with
      | () ->
          st.ms_batches <- st.ms_batches + 1;
          let c = counters_of acc (Clock.now () -. t0) in
          st.ms_totals <- add_counters st.ms_totals c;
          Ok (st, c)
      | exception Invalid msg -> Error msg  (* nothing mutated: not poisoned *)
      | exception Conflict msg ->
          st.ms_poisoned <- Some msg;
          Error msg
      | exception Internal msg ->
          st.ms_poisoned <- Some msg;
          Error ("internal: " ^ msg))

(* ---- materialization ---------------------------------------------------- *)

let target st =
  List.fold_left
    (fun acc fb ->
      let cs =
        if Hashtbl.length st.ms_subst = 0 then fb.fb_cs
        else begin
          (* resolved facts can coincide: fold them, first one wins *)
          let cs =
            Colstore.create ~shards:1 ~arity:(Colstore.arity fb.fb_cs)
              (Colstore.count fb.fb_cs)
          in
          Colstore.iter_live fb.fb_cs (fun row ->
              ignore
                (Colstore.insert cs
                   (Array.map (resolve st) (Colstore.row_cells fb.fb_cs row))));
          cs
        end
      in
      if Colstore.count cs = 0 then acc
      else
        Instance.set acc fb.fb_name
          { Instance.header = Array.to_list fb.fb_cols; tuples = decoded cs })
    Instance.empty st.ms_tgts

let report st =
  {
    Engine.r_target = target st;
    r_complete = true;
    r_rounds = st.ms_batches;
    r_stats =
      List.map
        (fun pi -> (pi.pi_plan.Plan.p_name, Obs.snapshot pi.pi_stats))
        st.ms_plans;
    r_egd_merges = Hashtbl.length st.ms_subst;
    r_sweep_dropped = 0;
    r_seconds = st.ms_totals.mc_seconds;
    r_shards =
      Stores.shard_view (List.map (fun sr -> sr.sr_store) st.ms_srcs);
  }

let totals st = st.ms_totals
let batches st = st.ms_batches

let live_stats st =
  let facts =
    List.fold_left (fun n fb -> n + Colstore.count fb.fb_cs) 0 st.ms_tgts
  in
  (facts, st.ms_nderivs, Hashtbl.length st.ms_null_occ)
