module Value = Smg_relational.Value
module Instance = Smg_relational.Instance
module Atom = Smg_cq.Atom
module Query = Smg_cq.Query
module Dependency = Smg_cq.Dependency
module Chase = Smg_cq.Chase

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
   equal [t]'s constant), so its null positions are a subset of [t]'s:
   either [t'] has [t]'s null positions and constants — one probe of a
   table that hashes the cells with every null as one wildcard — or it
   lies in a group with strictly fewer null positions. The global null
   counts behind (i) are built only when the first tuple passes (ii). *)

type coded = { arity : int; data : int array; rows : int array }

module Codes = Hashtbl.Make (Int)

(* the FNV mix of {!Smg_relational.Colstore.hash_cells} *)
let fnv_offset = 0x1435cb3777f7f
let fnv_prime = 0x100000001b3

let sweep_relation ~counts ~dropped { arity; data; rows } live =
  let n = Array.length rows in
  let base k = rows.(k) * arity in
  (* same null positions and same constants *)
  let module Same = Hashtbl.Make (struct
    type t = int

    let equal a b =
      let ba = base a and bb = base b in
      let rec go p =
        p = arity
        || (let x = data.(ba + p) and y = data.(bb + p) in
            if x < 0 then y < 0 else x = y)
           && go (p + 1)
      in
      go 0

    let hash a =
      let b = base a in
      let h = ref fnv_offset in
      for p = 0 to arity - 1 do
        h := (!h lxor max (-1) data.(b + p)) * fnv_prime
      done;
      !h land max_int
  end) in
  (* same null positions *)
  let module Mask = Hashtbl.Make (struct
    type t = int

    let equal a b =
      let ba = base a and bb = base b in
      let rec go p =
        p = arity || (data.(ba + p) < 0 = (data.(bb + p) < 0) && go (p + 1))
      in
      go 0

    let hash a =
      let b = base a in
      let h = ref fnv_offset in
      for p = 0 to arity - 1 do
        if data.(b + p) < 0 then h := (!h lxor p) * fnv_prime
      done;
      !h land max_int
  end) in
  (* the tuple under test: [first.(p)] is the first position holding the
     null at [p], [local.(q)] how often the null first seen at [q]
     occurs in it *)
  let first = Array.make arity 0 and local = Array.make arity 0 in
  let seen = Codes.create 8 in
  let prepare k =
    Codes.clear seen;
    let b = base k in
    for p = 0 to arity - 1 do
      let x = data.(b + p) in
      if x < 0 then
        match Codes.find_opt seen x with
        | Some q ->
            first.(p) <- q;
            local.(q) <- local.(q) + 1
        | None ->
            Codes.add seen x p;
            first.(p) <- p;
            local.(p) <- 1
    done
  in
  (* [j] is the image of [k] under the map sending [k]'s nulls to [j]'s
     cells at the same positions *)
  let consistent k j =
    let bk = base k and bj = base j in
    let rec go p =
      p = arity
      || (let x = data.(bk + p) in
          if x >= 0 then data.(bj + p) = x
          else
            let q = first.(p) in
            q = p || data.(bj + q) = data.(bj + p))
         && go (p + 1)
    in
    go 0
  in
  let only_here counts k =
    let b = base k in
    let rec go p =
      p = arity
      || (let x = data.(b + p) in
          x >= 0 || first.(p) <> p || Codes.find counts x = local.(p))
         && go (p + 1)
    in
    go 0
  in
  let same = Same.create (max 16 n) and masks = Mask.create 8 in
  let exact = Array.make n (ref []) and group = Array.make n (-1) in
  let reps = ref [] and ngroups = ref 0 in
  for k = 0 to n - 1 do
    (match Same.find_opt same k with
    | Some l ->
        l := k :: !l;
        exact.(k) <- l
    | None ->
        let l = ref [ k ] in
        Same.add same k l;
        exact.(k) <- l);
    group.(k) <-
      (match Mask.find_opt masks k with
      | Some g -> g
      | None ->
          let g = !ngroups in
          Mask.add masks k g;
          incr ngroups;
          reps := base k :: !reps;
          g)
  done;
  let reps = Array.of_list (List.rev !reps) in
  let members = Array.make !ngroups [] in
  for k = n - 1 downto 0 do
    members.(group.(k)) <- k :: members.(group.(k))
  done;
  let has_null =
    Array.map
      (fun b ->
        let rec go p = p < arity && (data.(b + p) < 0 || go (p + 1)) in
        go 0)
      reps
  in
  (* the groups whose null positions are a strict subset of [g]'s
     (distinct groups have distinct positions) *)
  let subsets = Array.make !ngroups None in
  let subsets_of g =
    match subsets.(g) with
    | Some l -> l
    | None ->
        let bg = reps.(g) in
        let within g' =
          let b' = reps.(g') in
          let rec go p =
            p = arity || ((data.(b' + p) >= 0 || data.(bg + p) < 0) && go (p + 1))
          in
          g' <> g && go 0
        in
        let l = List.filter within (List.init !ngroups Fun.id) in
        subsets.(g) <- Some l;
        l
  in
  for k = 0 to n - 1 do
    if has_null.(group.(k)) then begin
      let prepared = ref false in
      let candidate j =
        j <> k && live.(j)
        && begin
             if not !prepared then begin
               prepare k;
               prepared := true
             end;
             consistent k j
           end
      in
      if
        (List.exists candidate !(exact.(k))
        || List.exists
             (fun g -> List.exists candidate members.(g))
             (subsets_of group.(k)))
        && only_here (Lazy.force counts) k
      then begin
        live.(k) <- false;
        incr dropped
      end
    end
  done

let sweep_coded rels =
  let live = List.map (fun r -> Array.make (Array.length r.rows) true) rels in
  let counts =
    lazy
      (let c = Codes.create 1024 in
       List.iter
         (fun { arity; data; rows } ->
           Array.iter
             (fun row ->
               for p = row * arity to ((row + 1) * arity) - 1 do
                 let x = data.(p) in
                 if x < 0 then
                   Codes.replace c x
                     (1 + Option.value ~default:0 (Codes.find_opt c x))
               done)
             rows)
         rels;
       c)
  in
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
