module Value = Smg_relational.Value
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase
module Inttbl = Smg_relational.Inttbl

(* Variables a tgd "exports": universal variables that occur on the
   right-hand side, plus the arguments of every Skolem term there
   (Skolem variables carry their argument names inside the variable
   name, invisible to Atom.vars). *)
let exported (t : Dependency.tgd) =
  let lhs_vars = Atom.vars_of_list t.Dependency.lhs in
  let rhs_vars = Atom.vars_of_list t.Dependency.rhs in
  let direct = List.filter (fun x -> List.mem x lhs_vars) rhs_vars in
  let skolem_args =
    List.concat_map
      (fun x ->
        match Chase.parse_skolem_var x with
        | Some _ ->
            (* all variables of the application, nested args included *)
            List.filter
              (fun v -> List.mem v lhs_vars)
              (Smg_cq.Sotgd.term_vars (Smg_cq.Sotgd.term_of_var x))
        | None -> [])
      rhs_vars
  in
  List.sort_uniq compare (direct @ skolem_args)

let plain_existentials (t : Dependency.tgd) =
  List.filter
    (fun x -> Chase.parse_skolem_var x = None)
    (Dependency.existential_vars t)

let minimize_tgd (t : Dependency.tgd) =
  let head = List.map (fun x -> Atom.Var x) (exported t) in
  let lhs =
    (Query.minimize (Query.make ~name:"lhs" ~head t.Dependency.lhs)).Query.body
  in
  (* On the rhs, Skolem variables denote computed values, so they are
     pinned alongside the universal head — only plain existentials may
     fold away. *)
  let skolems =
    List.filter
      (fun x -> Chase.parse_skolem_var x <> None)
      (Atom.vars_of_list t.Dependency.rhs)
  in
  let rhs_head = head @ List.map (fun x -> Atom.Var x) skolems in
  let rhs =
    (Query.minimize (Query.make ~name:"rhs" ~head:rhs_head t.Dependency.rhs))
      .Query.body
  in
  { t with Dependency.lhs; rhs }

let specificity (t : Dependency.tgd) =
  (* Fewer plain existentials = more informative conclusions; among
     equals, a larger rhs asserts more. Firing the most informative
     tgds first lets the restricted-chase satisfaction check absorb the
     triggers of less informative ones, so fewer redundant nulls are
     minted in the first place. *)
  (List.length (plain_existentials t), -List.length t.Dependency.rhs)

let prepare tgds =
  let minimized = List.map minimize_tgd tgds in
  let deduped =
    List.fold_left
      (fun acc t ->
        if List.exists (Dependency.equal_tgd t) acc then acc else t :: acc)
      [] minimized
    |> List.rev
  in
  List.stable_sort (fun a b -> compare (specificity a) (specificity b)) deduped

(* ---- post-execution subsumption sweep ---------------------------------- *)

(* Drop a tuple [t] when (i) every labelled null in [t] occurs nowhere
   else in the instance and (ii) some other live tuple [t'] of the same
   relation agrees with [t] on every non-null cell, with a consistent
   assignment for [t]'s nulls. Each drop is the image of a proper
   endomorphism (map those nulls to [t']'s cells, identity elsewhere),
   so the result stays homomorphically equivalent — this removes the
   single-fact redundancy the greedy core fold spends most of its time
   on, in near-linear time. Nulls shared across facts (genuine joins on
   invented values) are left for {!Smg_verify.Icore}.

   The sweep reads interned codes (labelled nulls are the negative
   codes, see {!Smg_relational.Intern}): relations in the order given,
   rows in arena order, in one pass. One pass suffices: a dropped
   tuple's nulls occur nowhere else, so the drop changes no other
   tuple's condition (i), and it only removes candidates for (ii), so
   no drop makes another tuple droppable. For the same reason the null
   counts are never decremented. Condition (ii) is tested first,
   because it is local and nearly always fails at once. A subsuming
   [t'] must agree on [t]'s non-null cells (a null there could not
   equal [t]'s constant), so its null positions are a subset of [t]'s
   and it holds [t]'s constants there: it is found by probing indexes
   on [t]'s constant positions (see [sweep_relation]). The global null
   counts behind (i) are built only when the first tuple passes (ii). *)

type coded = { arity : int; data : int array; rows : int array }

(* the FNV mix of {!Smg_relational.Colstore.hash_cells}, spread before
   masking as Colstore's own tables are *)
let fnv_offset = 0x1435cb3777f7f
let fnv_prime = 0x100000001b3
let spread = Smg_relational.Colstore.spread

let table_size n =
  let c = ref 16 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

(* The sweep's tables are flat int arrays with open addressing and
   linear probing ({!Smg_relational.Inttbl} and the group, pair and
   [seen] tables below): per row they allocate nothing. *)

(* null code -> occurrences over every swept row, sized from the null
   cells so it never grows *)
let null_counts rels =
  let nulls = ref 0 in
  List.iter
    (fun { arity; data; rows } ->
      Array.iter
        (fun row ->
          for p = row * arity to ((row + 1) * arity) - 1 do
            if data.(p) < 0 then incr nulls
          done)
        rows)
    rels;
  let t = Inttbl.create !nulls in
  List.iter
    (fun { arity; data; rows } ->
      Array.iter
        (fun row ->
          for p = row * arity to ((row + 1) * arity) - 1 do
            let x = data.(p) in
            if x < 0 then Inttbl.replace t x (Inttbl.find t x 0 + 1)
          done)
        rows)
    rels;
  t

(* The rows of one relation sharing a null mask (the set of positions
   holding a null) form a group. A row [j] can subsume a row [k] only if
   [j]'s mask is within [k]'s and [j] holds [k]'s constants, so [k]'s
   candidates are found by probing, in [k]'s group and in each group
   with a strictly smaller mask, an index on [k]'s constant positions.
   Those indexes are built lazily, once per (group, candidate group)
   pair, and dropped after the group's last row: each costs the
   candidate group's size, so a relation of ground and one-null rows is
   swept in linear time, not in |null rows| × |ground rows|. *)

(* one (group, candidate group) index: bucket heads and per-member
   links, as member offsets within the candidate group, [-1] ending a
   chain *)
type pair = { heads : int array; next : int array }

let no_pair = { heads = [||]; next = [||] }

let sweep_relation ~counts ~dropped { arity; data; rows } live =
  let n = Array.length rows in
  let base k = rows.(k) * arity in
  (* ---- groups by null mask, ids in first-occurrence order ---- *)
  let group = Array.make n 0 in
  let reps = Array.make (max 1 n) 0 (* a group's first row's base *) in
  let ngroups = ref 0 in
  let gslots = Array.make (table_size n) 0 (* group id + 1, [0] empty *) in
  let gmask = Array.length gslots - 1 in
  let same_mask b b' =
    let p = ref 0 in
    while !p < arity && (data.(b + !p) < 0) = (data.(b' + !p) < 0) do
      incr p
    done;
    !p = arity
  in
  for k = 0 to n - 1 do
    let b = base k in
    let h = ref fnv_offset in
    for p = 0 to arity - 1 do
      if data.(b + p) < 0 then h := (!h lxor p) * fnv_prime
    done;
    let i = ref (spread !h land gmask) in
    while gslots.(!i) <> 0 && not (same_mask b reps.(gslots.(!i) - 1)) do
      i := (!i + 1) land gmask
    done;
    if gslots.(!i) = 0 then begin
      reps.(!ngroups) <- b;
      incr ngroups;
      gslots.(!i) <- !ngroups
    end;
    group.(k) <- gslots.(!i) - 1
  done;
  let ngroups = !ngroups in
  (* members of group [g]: [members.(start.(g)) ..] in row order *)
  let start = Array.make (ngroups + 1) 0 in
  Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) group;
  for g = 1 to ngroups do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let members = Array.make (max 1 n) 0 and fill = Array.sub start 0 ngroups in
  for k = 0 to n - 1 do
    let g = group.(k) in
    members.(fill.(g)) <- k;
    fill.(g) <- fill.(g) + 1
  done;
  let size g = start.(g + 1) - start.(g) in
  (* each group's constant positions; a tested group's candidate groups
     (itself, then those with a strictly smaller mask: distinct groups
     have distinct masks) and their indexes, from its first row on *)
  let cpos =
    Array.init ngroups (fun g ->
        let b = reps.(g) in
        Array.of_list
          (List.filter (fun p -> data.(b + p) >= 0) (List.init arity Fun.id)))
  in
  let cands = Array.make ngroups [||] and pairs = Array.make ngroups [||] in
  let within g' g =
    let bg = reps.(g) and b' = reps.(g') in
    let p = ref 0 in
    while !p < arity && (data.(b' + !p) >= 0 || data.(bg + !p) < 0) do
      incr p
    done;
    !p = arity
  in
  let open_group g =
    cands.(g) <-
      Array.of_list
        (g :: List.filter (fun g' -> g' <> g && within g' g) (List.init ngroups Fun.id));
    pairs.(g) <- Array.make (Array.length cands.(g)) no_pair
  in
  let key_hash cp b =
    let h = ref fnv_offset in
    for i = 0 to Array.length cp - 1 do
      h := (!h lxor data.(b + cp.(i))) * fnv_prime
    done;
    spread !h
  in
  let build cp g' =
    let m = size g' in
    let heads = Array.make (table_size m) (-1) and next = Array.make m (-1) in
    let mask = Array.length heads - 1 in
    for o = 0 to m - 1 do
      let s = key_hash cp (base members.(start.(g') + o)) land mask in
      next.(o) <- heads.(s);
      heads.(s) <- o
    done;
    { heads; next }
  in
  (* the tuple under test: [first.(p)] is the first position holding the
     null at [p], [local.(q)] how often the null first seen at [q]
     occurs in it. [seen] maps a null to that first position: flat, and
     cleared in O(1) by bumping [stamp]. *)
  let first = Array.make arity 0 and local = Array.make arity 0 in
  let seen_keys = Array.make (table_size arity) 0 in
  let seen_pos = Array.make (Array.length seen_keys) 0 in
  let seen_stamp = Array.make (Array.length seen_keys) 0 in
  let stamp = ref 0 in
  let prepare k =
    incr stamp;
    let smask = Array.length seen_keys - 1 in
    let b = base k in
    for p = 0 to arity - 1 do
      let x = data.(b + p) in
      if x < 0 then begin
        let i = ref (spread x land smask) in
        while seen_stamp.(!i) = !stamp && seen_keys.(!i) <> x do
          i := (!i + 1) land smask
        done;
        if seen_stamp.(!i) = !stamp then begin
          let q = seen_pos.(!i) in
          first.(p) <- q;
          local.(q) <- local.(q) + 1
        end
        else begin
          seen_stamp.(!i) <- !stamp;
          seen_keys.(!i) <- x;
          seen_pos.(!i) <- p;
          first.(p) <- p;
          local.(p) <- 1
        end
      end
    done
  in
  (* [j] is the image of [k] under the map sending [k]'s nulls to [j]'s
     cells at the same positions *)
  let consistent k j =
    let bk = base k and bj = base j in
    let p = ref 0 in
    while
      !p < arity
      &&
      let x = data.(bk + !p) in
      if x >= 0 then data.(bj + !p) = x
      else
        let q = first.(!p) in
        q = !p || data.(bj + q) = data.(bj + !p)
    do
      incr p
    done;
    !p = arity
  in
  let only_here counts k =
    let b = base k in
    let p = ref 0 in
    while
      !p < arity
      &&
      let x = data.(b + !p) in
      x >= 0 || first.(!p) <> !p || Inttbl.find counts x 0 = local.(!p)
    do
      incr p
    done;
    !p = arity
  in
  (* [k] and [j] agree on the positions [cp] *)
  let same_key cp k j =
    let bk = base k and bj = base j in
    let i = ref 0 in
    while !i < Array.length cp && data.(bk + cp.(!i)) = data.(bj + cp.(!i)) do
      incr i
    done;
    !i = Array.length cp
  in
  for k = 0 to n - 1 do
    let g = group.(k) in
    if Array.length cpos.(g) < arity then begin
      if Array.length cands.(g) = 0 then open_group g;
      let cp = cpos.(g) and cs = cands.(g) and ps = pairs.(g) in
      let h = key_hash cp (base k) in
      let prepared = ref false and found = ref false and c = ref 0 in
      while (not !found) && !c < Array.length cs do
        let g' = cs.(!c) in
        if ps.(!c) == no_pair then ps.(!c) <- build cp g';
        let pr = ps.(!c) in
        let o = ref pr.heads.(h land (Array.length pr.heads - 1)) in
        while (not !found) && !o >= 0 do
          let j = members.(start.(g') + !o) in
          if j <> k && live.(j) && same_key cp k j then begin
            if not !prepared then begin
              prepare k;
              prepared := true
            end;
            if consistent k j then found := true
          end;
          o := pr.next.(!o)
        done;
        incr c
      done;
      if !found && only_here (Lazy.force counts) k then begin
        live.(k) <- false;
        incr dropped
      end;
      (* the group's last row: its indexes are done with *)
      if k = members.(start.(g + 1) - 1) then pairs.(g) <- [||]
    end
  done

let sweep_coded rels =
  let live = List.map (fun r -> Array.make (Array.length r.rows) true) rels in
  let counts = lazy (null_counts rels) in
  let dropped = ref 0 in
  List.iter2 (sweep_relation ~counts ~dropped) rels live;
  (live, !dropped)

let sweep inst =
  let rels =
    List.filter_map
      (fun name ->
        Option.map
          (fun r -> (name, r, Array.of_list r.Instance.tuples))
          (Instance.relation inst name))
      (Instance.names inst)
  in
  let coded =
    List.map
      (fun (_, r, _) ->
        (* untracked coding: duplicate tuples stay distinct rows *)
        let arity = max 1 (List.length r.Instance.header) in
        let n, data = Smg_relational.Intern.code_rows ~arity r.Instance.tuples in
        { arity; data; rows = Array.init n Fun.id })
      rels
  in
  let live, dropped = sweep_coded coded in
  let inst' =
    List.fold_left2
      (fun acc (name, r, tuples) live ->
        (* survivors in reverse row order, as the engine decodes them:
           the order laconic output has always had, kept so rendered
           bodies stay byte-identical *)
        let kept = ref [] in
        Array.iteri (fun k t -> if live.(k) then kept := t :: !kept) tuples;
        Instance.set acc name { r with Instance.tuples = !kept })
      inst rels live
  in
  (inst', dropped)
