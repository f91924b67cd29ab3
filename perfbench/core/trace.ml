(* In-memory span recorder for the traced run: spans are kept in a
   list and written out once, at exit. Timing calls into a layer from
   outside — the benchmark wraps each layer's public functions. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the op this span belongs to; 0 outside ops *)
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let op = ref 0

let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Clock.now_ns () in
    let close () =
      let t1 = Clock.now_ns () in
      stack := List.tl !stack;
      spans := { id; name; parent; op = !op; t0; t1 } :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Run [f] as op [id]: its root span carries [name]. *)
let with_op id name f =
  op := id;
  Fun.protect ~finally:(fun () -> op := 0) (fun () -> with_span name f)

let duration_ms s = Clock.ms_between s.t0 s.t1
let all () = List.rev !spans

(* Self time: the span's duration minus the time its children cover.
   Children of one span run sequentially on one thread, so they never
   overlap and their durations add. *)
let self_ms spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration_ms c else acc)
    (duration_ms s) spans

(* Per op, in op order, the summed duration of every span named [name]. *)
let per_op_ms spans name =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if String.equal s.name name then
        Hashtbl.replace tbl s.op
          (duration_ms s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    spans;
  List.map snd (List.sort compare (Hashtbl.fold (fun op v acc -> (op, v) :: acc) tbl []))

let json_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"op\": %d, \
         \"start_ns\": %Ld, \"stop_ns\": %Ld}\n"
        s.id (json_escape s.name) s.parent s.op s.t0 s.t1)
    (all ());
  close_out oc
