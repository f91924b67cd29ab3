type reason = Fuel | Deadline

type t = {
  mutable fuel : int;  (* remaining; max_int means unlimited *)
  granted : int;  (* initial fuel allowance, for split/absorb accounting *)
  has_fuel_limit : bool;
  allowance : float;  (* seconds granted from [start]; infinity = none *)
  start : float;  (* [Clock.now] at creation *)
  interval : int;
  mutable countdown : int;  (* ticks until the next clock check *)
  mutable spent : reason option;  (* sticky *)
}

exception Exhausted of reason

let make ~fuel ~has_fuel_limit ~allowance ~interval =
  {
    fuel;
    granted = fuel;
    has_fuel_limit;
    allowance;
    start = (if allowance < infinity then Clock.now () else 0.);
    interval = max 1 interval;
    countdown = max 1 interval;
    (* a zero allowance is spent from birth: waiting for the clock to
       visibly advance past 0 would leave the budget's fate to timer
       resolution *)
    spent = (if allowance <= 0. then Some Deadline else None);
  }

let create ?deadline_ms ?fuel ?(interval = 256) () =
  let allowance =
    match deadline_ms with None -> infinity | Some ms -> ms /. 1000.
  in
  make
    ~fuel:(match fuel with None -> max_int | Some f -> max 0 f)
    ~has_fuel_limit:(fuel <> None) ~allowance ~interval

let unlimited () = create ()

let check_clock b =
  b.countdown <- b.interval;
  if b.allowance < infinity && Clock.now () -. b.start > b.allowance then
    b.spent <- Some Deadline

let burn b n =
  match b.spent with
  | Some _ -> false
  | None ->
      (if b.has_fuel_limit then begin
         b.fuel <- b.fuel - n;
         if b.fuel < 0 then begin
           b.fuel <- 0;
           b.spent <- Some Fuel
         end
       end);
      if b.spent = None then begin
        b.countdown <- b.countdown - 1;
        if b.countdown <= 0 then check_clock b
      end;
      b.spent = None

let tick b = burn b 1

let ok b =
  (match b.spent with None -> check_clock b | Some _ -> ());
  b.spent = None

let exhausted b = b.spent

let tick_exn b =
  if not (tick b) then
    raise (Exhausted (match b.spent with Some r -> r | None -> Fuel))

let burn_exn b n =
  if not (burn b n) then
    raise (Exhausted (match b.spent with Some r -> r | None -> Fuel))

let remaining_fuel b = if b.has_fuel_limit then Some b.fuel else None

(* Equal fuel shares (remainder to the first children) under the
   parent's remaining time allowance. The parent keeps its own state —
   children are the currency: consume them with [absorb] after the
   forked work joins. The split is a function of the parent's remaining
   fuel and [parts] only, never of scheduling, which is what keeps
   parallel fuel accounting deterministic for any domain count. *)
let split b ~parts =
  let parts = max 1 parts in
  (* the children are granted what remains of the parent's allowance,
     counted from the fork; a parent found past its deadline is marked
     spent, as a clock check would *)
  let allowance =
    if b.allowance < infinity then begin
      let left = b.allowance -. (Clock.now () -. b.start) in
      if left < 0. && b.spent = None then b.spent <- Some Deadline;
      Float.max 0. left
    end
    else infinity
  in
  if not b.has_fuel_limit then
    List.init parts (fun _ ->
        make ~fuel:max_int ~has_fuel_limit:false ~allowance
          ~interval:b.interval)
  else
    let share = b.fuel / parts and extra = b.fuel mod parts in
    List.init parts (fun i ->
        let fuel = share + if i < extra then 1 else 0 in
        make ~fuel ~has_fuel_limit:true ~allowance ~interval:b.interval)

let absorb b child =
  (if b.has_fuel_limit && child.has_fuel_limit then begin
     let consumed = child.granted - max 0 child.fuel in
     b.fuel <- b.fuel - consumed;
     if b.fuel <= 0 then begin
       b.fuel <- 0;
       if b.spent = None then b.spent <- Some Fuel
     end
   end);
  (* a child's allowance is the parent's remaining allowance at the
     fork, so its deadline passing is the parent's passing; a child
     merely running out of its fuel share is not — the parent may
     still have fuel for sequential follow-up *)
  match child.spent with
  | Some Deadline when b.spent = None -> b.spent <- Some Deadline
  | _ -> ()

let pp_reason ppf = function
  | Fuel -> Fmt.string ppf "fuel"
  | Deadline -> Fmt.string ppf "deadline"
