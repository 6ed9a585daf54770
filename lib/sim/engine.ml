(* Every queued event is one int code.  A code [k >= 0] is an int event
   for the engine's handler; a code [-1 - s] is the closure in slot [s]
   of the slot table.  The heap and the same-timestamp lane hold only
   codes, so neither stores a pointer and dispatch allocates nothing. *)

type t = {
  (* The sim clock, in a one-cell float array so storing it does not
     box. *)
  clock : float array;
  (* Scratch cell the heap writes a popped key into. *)
  due : float array;
  queue : Heap.t;
  (* Fast lane for events scheduled at exactly the current timestamp
     (immediate wake-ups, zero-delay cascades): an int ring, no
     O(log n) heap traffic.  Invariant: every lane entry is due at
     [clock], so the lane must drain before the clock may advance. *)
  mutable lane : int array;  (* power-of-two length *)
  mutable lane_head : int;
  mutable lane_len : int;
  (* Closure slot table: [slots.(s)] holds a pending closure; freed
     slot numbers are stacked in [free.(0 .. nfree-1)] and reused
     first, so the table stops growing at the pending high-water mark. *)
  mutable slots : (t -> unit) array;
  mutable used : int;  (* slots ever handed out *)
  mutable free : int array;
  mutable nfree : int;
  handler : t -> int -> unit;  (* [no_handler] when none was given *)
  mutable executed : int;
  (* The calling domain's cumulative event counter, captured at
     [create] so the hot path pays one load instead of a DLS lookup. *)
  domain_counter : int ref;
}

let domain_events_key = Domain.DLS.new_key (fun () -> ref 0)
let domain_events () = !(Domain.DLS.get domain_events_key)
let no_closure (_ : t) = ()
let no_handler (_ : t) (_ : int) = ()

let create ?handler () =
  {
    clock = [| Time_ns.zero |];
    due = [| Time_ns.zero |];
    queue = Heap.create ();
    lane = Array.make 16 0;
    lane_head = 0;
    lane_len = 0;
    slots = [||];
    used = 0;
    free = [||];
    nfree = 0;
    handler = Option.value handler ~default:no_handler;
    executed = 0;
    domain_counter = Domain.DLS.get domain_events_key;
  }

let now t = t.clock.(0)
let events_executed t = t.executed
let closure_slots t = t.used

let lane_push t code =
  let cap = Array.length t.lane in
  if t.lane_len = cap then begin
    let lane = Array.make (2 * cap) 0 in
    for i = 0 to t.lane_len - 1 do
      lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
    done;
    t.lane <- lane;
    t.lane_head <- 0
  end;
  t.lane.((t.lane_head + t.lane_len) land (Array.length t.lane - 1)) <- code;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let code = t.lane.(t.lane_head) in
  t.lane_head <- (t.lane_head + 1) land (Array.length t.lane - 1);
  t.lane_len <- t.lane_len - 1;
  code

(* Inlined so a time computed in this module stays unboxed unless it
   goes to the heap. *)
let[@inline] enqueue t at code =
  let now = t.clock.(0) in
  if at < now then invalid_arg "Engine.schedule: event in the past"
  else if at = now then lane_push t code
  else Heap.push t.queue at code

let slot_for t f =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    let s = t.free.(t.nfree) in
    t.slots.(s) <- f;
    s
  end
  else begin
    let s = t.used in
    if s = Array.length t.slots then begin
      let cap = Stdlib.max 16 (2 * s) in
      let slots = Array.make cap no_closure in
      Array.blit t.slots 0 slots 0 s;
      t.slots <- slots;
      t.free <- Array.make cap 0
    end;
    t.slots.(s) <- f;
    t.used <- s + 1;
    s
  end

let schedule t at f =
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  enqueue t at (-1 - slot_for t f)

let schedule_int t at k =
  if Float.is_nan at then invalid_arg "Engine.schedule_int: NaN time";
  if k < 0 then invalid_arg "Engine.schedule_int: negative payload";
  if t.handler == no_handler then
    invalid_arg "Engine.schedule_int: engine has no int handler";
  enqueue t at k

let schedule_after t delay f =
  let at = t.clock.(0) +. delay in
  if Float.is_nan at then invalid_arg "Engine.schedule: NaN time";
  enqueue t at (-1 - slot_for t f)

let pending t = Heap.length t.queue + t.lane_len

let add_domain_events n =
  let r = Domain.DLS.get domain_events_key in
  r := !r + n

(* Advance the sim clock to [due.(0)], snapshotting the telemetry
   registry at every interval boundary the jump crosses (before the
   event there runs).  Telemetry off = one atomic load per clock
   advance. *)
let advance t =
  if Metrics.on () then
    Metrics.sample_boundaries ~from:t.clock.(0) ~until:t.due.(0);
  t.clock.(0) <- t.due.(0)

(* The slot is freed before its closure runs, so a closure that
   reschedules itself reuses its own slot. *)
let exec t code =
  t.executed <- t.executed + 1;
  incr t.domain_counter;
  if code >= 0 then t.handler t code
  else begin
    let s = -1 - code in
    let f = t.slots.(s) in
    t.slots.(s) <- no_closure;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1;
    f t
  end

let pop_heap t =
  let code = Heap.pop_into t.queue t.due in
  advance t;
  exec t code

let step t =
  if t.lane_len = 0 then
    if Heap.is_empty t.queue then false
    else begin
      pop_heap t;
      true
    end
  else begin
    (* A heap event still due at the current timestamp was scheduled
       before anything in the lane (scheduling at [clock] always goes
       to the lane), so FIFO-among-equal-timestamps spans both. *)
    if Heap.min_le t.queue t.clock then pop_heap t else exec t (lane_pop t);
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
      let stop_cell = [| stop |] in
      let continue = ref true in
      while !continue do
        let next_due =
          if t.lane_len > 0 then t.clock.(0) <= stop
          else Heap.min_le t.queue stop_cell
        in
        if next_due then ignore (step t)
        else begin
          t.due.(0) <- Time_ns.max t.clock.(0) stop;
          advance t;
          continue := false
        end
      done

let run_for t d = run ~until:(Time_ns.add t.clock.(0) d) t
