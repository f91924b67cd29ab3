(* Work-stealing domain pool.

   Lifecycle: workers sleep on [wake] between parallel sections. A
   section is: the caller pushes every task into its own deque, bumps
   [epoch], broadcasts, then drains alongside the workers. Each
   participant pops its own deque first and steals from the others when
   empty; a participant whose full steal sweep finds nothing goes back
   to sleep (tasks never spawn subtasks into other deques, so an empty
   sweep means every task is claimed). [pending] counts unfinished
   tasks; whoever finishes the last one broadcasts [done_] to release
   the caller.

   A task claimed by a worker that is still draining a previous epoch
   is executed exactly once all the same — claims go through the
   deques' compare-and-set, and [pending] only counts executions. *)

type t = {
  size : int;
  deques : (unit -> unit) Deque.t array;  (* index 0 = the caller *)
  lock : Mutex.t;
  wake : Condition.t;
  done_ : Condition.t;
  mutable epoch : int;
  mutable live : bool;
  mutable in_section : bool;
  pending : int Atomic.t;
  fault : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable workers : unit Domain.t array;
  mutable worker_ids : Domain.id list;
  mutable supervisor : (exn -> unit) option;
      (* service-mode exception sink; see [set_supervisor] *)
}

let finish_task t =
  if Atomic.fetch_and_add t.pending (-1) = 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.done_;
    Mutex.unlock t.lock
  end

let run_task t f =
  (try f ()
   with exn ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set t.fault None (Some (exn, bt))));
  finish_task t

(* One round of work for participant [me]: own deque first, then a
   steal sweep over the others. [true] if a task was run. *)
let try_work t me =
  match Deque.pop t.deques.(me) with
  | Some f ->
      run_task t f;
      true
  | None ->
      let rec sweep k =
        if k = t.size then false
        else
          let victim = (me + k) mod t.size in
          match Deque.steal t.deques.(victim) with
          | Some f ->
              run_task t f;
              true
          | None -> sweep (k + 1)
      in
      sweep 1

let worker_loop t me =
  let seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.lock;
    while t.live && t.epoch = !seen do
      Condition.wait t.wake t.lock
    done;
    let alive = t.live in
    seen := t.epoch;
    Mutex.unlock t.lock;
    if not alive then continue_ := false
    else while try_work t me do () done
  done

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      size;
      deques = Array.init size (fun _ -> Deque.create ());
      lock = Mutex.create ();
      wake = Condition.create ();
      done_ = Condition.create ();
      epoch = 0;
      live = true;
      in_section = false;
      pending = Atomic.make 0;
      fault = Atomic.make None;
      workers = [||];
      worker_ids = [];
      supervisor = None;
    }
  in
  let workers =
    Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)))
  in
  t.workers <- workers;
  t.worker_ids <- Array.to_list (Array.map Domain.get_id workers);
  t

let shutdown t =
  if t.live then begin
    Mutex.lock t.lock;
    t.live <- false;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let size t = t.size

let cap = 8

let default_domains () =
  match Sys.getenv_opt "SMG_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> min cap (Domain.recommended_domain_count ())

let sequential tasks = Array.iter (fun f -> f ()) tasks

let run t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if
    t.size = 1 || n = 1 || t.in_section
    || List.mem (Domain.self ()) t.worker_ids
  then sequential tasks
  else begin
    t.in_section <- true;
    Atomic.set t.fault None;
    Atomic.set t.pending n;
    Array.iter (Deque.push t.deques.(0)) tasks;
    Mutex.lock t.lock;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    while try_work t 0 do () done;
    Mutex.lock t.lock;
    while Atomic.get t.pending > 0 do
      Condition.wait t.done_ t.lock
    done;
    Mutex.unlock t.lock;
    t.in_section <- false;
    match Atomic.get t.fault with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

(* ---- service mode -------------------------------------------------------

   No sections, no per-task join: the owning domain pushes tasks as
   they arrive (one epoch bump per submit keeps the no-lost-wakeup
   argument of [run]: the bump happens under the lock workers re-check
   before sleeping) and [drain] waits for [pending] to reach zero,
   helping with unclaimed tasks first so a burst the workers have not
   stolen yet cannot strand the caller. *)

let set_supervisor t f = t.supervisor <- Some f

let supervised t f () =
  try f ()
  with exn -> (
    match t.supervisor with
    | Some s -> ( try s exn with _ -> ())
    | None -> ())

let submit t f =
  if t.size = 1 then supervised t f ()
  else begin
    ignore (Atomic.fetch_and_add t.pending 1);
    Deque.push t.deques.(0) (supervised t f);
    Mutex.lock t.lock;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

let drain t =
  if t.size > 1 then begin
    while try_work t 0 do () done;
    Mutex.lock t.lock;
    while Atomic.get t.pending > 0 do
      Condition.wait t.done_ t.lock
    done;
    Mutex.unlock t.lock
  end

(* OCaml's Condition has no timed wait, so the bounded drain helps
   with unclaimed work and then polls [pending] on a short sleep. The
   poll only runs while a stuck task is the bottleneck, so the 1 ms
   granularity costs nothing on the happy path (the helping loop has
   already emptied the deques by then). *)
let drain_timeout t ~seconds =
  if t.size <= 1 then true
  else begin
    while try_work t 0 do () done;
    let give_up = Smg_robust.Clock.now () +. Float.max 0. seconds in
    let rec wait () =
      if Atomic.get t.pending <= 0 then true
      else if Smg_robust.Clock.now () >= give_up then false
      else begin
        while try_work t 0 do () done;
        if Atomic.get t.pending <= 0 then true
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
      end
    in
    wait ()
  end

let chunk_size t ?chunk n =
  match chunk with
  | Some c -> max 1 c
  | None ->
      (* adaptive: enough chunks to balance (≈4 per domain) without
         making tasks so small that scheduling dominates *)
      max 1 ((n + (4 * t.size) - 1) / (4 * t.size))

let for_ t ?chunk lo hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else begin
    let c = chunk_size t ?chunk n in
    let ntasks = (n + c - 1) / c in
    if ntasks <= 1 || t.size = 1 then
      for i = lo to hi - 1 do
        body i
      done
    else
      run t
        (Array.init ntasks (fun k () ->
             let i0 = lo + (k * c) in
             let i1 = min hi (i0 + c) in
             for i = i0 to i1 - 1 do
               body i
             done))
  end

let map t ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.size = 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    for_ t ?chunk 0 n (fun i -> out.(i) <- Some (f arr.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every index ran *))
      out
  end

let mapi_list t ?chunk f xs =
  let arr = Array.of_list xs in
  Array.to_list (map t ?chunk (fun (i, x) -> f i x) (Array.mapi (fun i x -> (i, x)) arr))

let map_list t ?chunk f xs = Array.to_list (map t ?chunk f (Array.of_list xs))
