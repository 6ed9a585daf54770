module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type config = {
  arrival_rate_rps : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
}

let config ?(duration_ns = 2e9) ?(warmup_ns = 2e8) ?(seed = 42) ~rate_rps () =
  { arrival_rate_rps = rate_rps; duration_ns; warmup_ns; seed }

type result = {
  offered_rps : float;
  completed_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  max_queue : int;
}

let validate config =
  let r = config.arrival_rate_rps in
  if not (Float.is_finite r && r > 0.) then
    invalid_arg "Open_loop.run: rate_rps must be finite and > 0";
  if not (Float.is_finite config.duration_ns && config.duration_ns >= 0.) then
    invalid_arg "Open_loop.run: duration_ns must be finite and >= 0";
  if not (Float.is_finite config.warmup_ns && config.warmup_ns >= 0.) then
    invalid_arg "Open_loop.run: warmup_ns must be finite and >= 0"

(* Every event is an int: 0 is the next arrival, due at [next.(0)];
   [1 + j] is the completion of the request in slot [j], which holds
   its arrival and finish times.  Freed slots are stacked in [free] and
   reused first, so the slot arrays stop growing at the backlog's
   high-water mark. *)
let run config (server : Closed_loop.server) =
  validate config;
  let rng = Prng.create config.seed in
  let latencies = Histogram.create () in
  let unit_free = Array.make (Stdlib.max 1 server.units) 0. in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  let completed = ref 0 in
  let in_flight = ref 0 in
  let max_queue = ref 0 in
  let mean_gap = 1e9 /. config.arrival_rate_rps in
  let next = [| 0. |] in
  let arrived = ref [||] and finish = ref [||] and free = ref [||] in
  let used = ref 0 and nfree = ref 0 in
  let slot () =
    if !nfree > 0 then begin
      decr nfree;
      !free.(!nfree)
    end
    else begin
      let j = !used in
      if j = Array.length !arrived then begin
        let cap = Stdlib.max 64 (2 * j) in
        let grow a = Array.append a (Array.make (cap - j) 0.) in
        arrived := grow !arrived;
        finish := grow !finish;
        free := Array.make cap 0
      end;
      used := j + 1;
      j
    end
  in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to Array.length unit_free - 1 do
      if unit_free.(i) < unit_free.(!best) then best := i
    done;
    !best
  in
  let arrive engine =
    let now = next.(0) in
    if now < measure_end then begin
      incr in_flight;
      if !in_flight > !max_queue then max_queue := !in_flight;
      let u = least_loaded () in
      let start = Float.max now unit_free.(u) in
      let f = start +. server.service_ns rng +. server.overhead_ns in
      unit_free.(u) <- f;
      let j = slot () in
      !arrived.(j) <- now;
      !finish.(j) <- f;
      Engine.schedule_int engine !finish.(j) (1 + j);
      let gap = Prng.exponential rng ~mean:mean_gap in
      next.(0) <- now +. gap;
      Engine.schedule_int engine next.(0) 0
    end
  in
  let complete j =
    decr in_flight;
    let now = !arrived.(j) and now' = !finish.(j) in
    !free.(!nfree) <- j;
    incr nfree;
    if now >= measure_start && now' <= measure_end then begin
      incr completed;
      Histogram.add latencies (now' -. now)
    end
  in
  let handler engine code = if code = 0 then arrive engine else complete (code - 1) in
  let engine = Engine.create ~handler () in
  Engine.schedule_int engine 0. 0;
  Engine.run engine;
  {
    offered_rps = config.arrival_rate_rps;
    completed_rps = float_of_int !completed /. (config.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    max_queue = !max_queue;
  }

let utilization r ~service_ns ~units =
  r.offered_rps *. service_ns /. 1e9 /. float_of_int units
