module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type server = {
  units : int;
  service_ns : Prng.t -> float;
  overhead_ns : float;
}

type config = {
  connections : int;
  rtt_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  trace_mechanisms : Price.row list;
  lb : Xc_lb.Policy.hedge option;
}

let default_config =
  {
    connections = 32;
    rtt_ns = Xc_cpu.Costs.lan_rtt_ns;
    duration_ns = 2e9;
    warmup_ns = 2e8;
    seed = 42;
    trace_mechanisms = [];
    lb = None;
  }

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  completed : int;
}

(* Per-server mutable state during a run. *)
type state = {
  server : server;
  unit_free : float array; (* next-free absolute time per service unit *)
  latencies : Histogram.t;
  mutable completed : int;
  rng : Prng.t;
}

let least_loaded st =
  let best = ref 0 in
  for i = 1 to Array.length st.unit_free - 1 do
    if st.unit_free.(i) < st.unit_free.(!best) then best := i
  done;
  !best

let validate config =
  if config.connections < 1 then
    invalid_arg "Closed_loop.run: connections must be >= 1";
  if not (Float.is_finite config.duration_ns && config.duration_ns >= 0.) then
    invalid_arg "Closed_loop.run: duration_ns must be finite and >= 0";
  if not (Float.is_finite config.warmup_ns && config.warmup_ns >= 0.) then
    invalid_arg "Closed_loop.run: warmup_ns must be finite and >= 0"

let lb_clones_cancelled = Xc_sim.Metrics.counter ~cat:"lb" ~name:"clones-cancelled"
let lb_clones_spawned = Xc_sim.Metrics.counter ~cat:"lb" ~name:"clones-spawned"
let lb_requests = Xc_sim.Metrics.counter ~cat:"lb" ~name:"requests"
let net_messages = Xc_sim.Metrics.counter ~cat:"net" ~name:"messages"
let platform_in_flight = Xc_sim.Metrics.gauge ~cat:"platform" ~name:"in-flight"
let platform_latency_ns = Xc_sim.Metrics.dist ~cat:"platform" ~name:"latency-ns"
let platform_requests = Xc_sim.Metrics.counter ~cat:"platform" ~name:"requests"

(* Clients live in arrays indexed by a client number [k]: server
   [k / connections], connection [k mod connections].  Every event is
   an int: [2k] is client [k]'s first send, [2k + 1] its response, and
   codes from [2 * clients] up are a hedged [Policy.complete] of
   (server, unit).  A client's one pending event is due at [due.(k)],
   so the handler never reads the clock. *)
let run_states config states =
  validate config;
  let states = Array.of_list states in
  let conns = config.connections in
  let clients = Array.length states * conns in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  let half_rtt = config.rtt_ns /. 2. in
  let due = Array.make clients 0. in
  let sent = Array.make clients 0. in
  let arrival = Array.make clients 0. in
  let start = Array.make clients 0. in
  let finish = Array.make clients 0. in
  let hedge_ns = Array.make clients 0. in
  (* Bundle lane for tail attribution: when [trace_mechanisms] is set,
     each measured request's spans (request + synthetic children) are
     re-based onto a sequential region past the end of the simulated
     timeline.  Concurrent requests genuinely overlap in simulated
     time, and overlapping windows cannot be partitioned exactly by a
     containment sweep; packing the bundles end to end makes
     [Profile.attribute] exact.  The cursor is shared by every server
     in the run so bundles never collide across states. *)
  let synth_cursor = [| measure_end +. config.rtt_ns +. 1e9 |] in
  let policies =
    match config.lb with
    | None -> Array.map (fun _ -> None) states
    | Some { Xc_lb.Policy.kind; clones } ->
        if clones < 1 then invalid_arg "Closed_loop: clones must be >= 1";
        (* Per-server policy state, seeded from the experiment seed (not
           global state) so sharded traced runs stay deterministic; the
           clone factor is capped at the unit count. *)
        Array.mapi
          (fun i (st : state) ->
            let units = Array.length st.unit_free in
            Some
              ( Xc_lb.Policy.create
                  ~seed:(config.seed + (i * 104729) + 1)
                  ~backends:units kind,
                Stdlib.min clones units ))
          states
  in
  (* A hedged server's row name carries its clone fan-out, fixed for
     the run: rendered once here, not per traced request.  [None] when
     requests are not cloned. *)
  let hedge_rows =
    Array.map
      (function
        | Some (_, d) when d > 1 -> Some (Printf.sprintf "clone-x%d" d)
        | _ -> None)
      policies
  in
  let hedge_base = 2 * clients in
  let stride =
    Array.fold_left (fun m st -> Stdlib.max m (Array.length st.unit_free)) 1 states
  in
  let send engine k =
    let now = due.(k) in
    if now < measure_end then begin
      let i = k / conns in
      let st = states.(i) in
      sent.(k) <- now;
      (* Request reaches the server after half an RTT. *)
      let arrive = now +. half_rtt in
      arrival.(k) <- arrive;
      (match policies.(i) with
      | None ->
          let u = least_loaded st in
          let s = Float.max arrive st.unit_free.(u) in
          let service = st.server.service_ns st.rng +. st.server.overhead_ns in
          let f = s +. service in
          st.unit_free.(u) <- f;
          start.(k) <- s;
          finish.(k) <- f;
          hedge_ns.(k) <- 0.
      | Some (p, d) ->
          (* Hedged dispatch over the service units: the policy picks
             [d] distinct units, every clone gets the same sampled
             requirement (synchronized service), and since the units
             serve FIFO the winner is known at booking time — the
             clone with the earliest start.  Losing clones occupy
             their unit only until the winner finishes
             (cancel-on-first-complete); a clone that would start
             after that point never runs at all, a full refund. *)
          let targets = Xc_lb.Policy.pick_set p ~clones:d in
          let service = st.server.service_ns st.rng +. st.server.overhead_ns in
          let bookings =
            List.map (fun u -> (u, Float.max arrive st.unit_free.(u))) targets
          in
          let wu, wstart =
            match bookings with
            | [] -> assert false
            | first :: rest ->
                List.fold_left
                  (fun (bu, bs) (u, s) -> if s < bs then (u, s) else (bu, bs))
                  first rest
          in
          let tstar = wstart +. service in
          let hedge = ref 0. in
          List.iter
            (fun (u, s) ->
              if u = wu || s < tstar then begin
                (* The winner runs to completion; a started sibling
                   holds its unit until cancellation at [tstar]. *)
                if u <> wu then hedge := !hedge +. (tstar -. s);
                st.unit_free.(u) <- tstar;
                Xc_lb.Policy.admit p u;
                Engine.schedule_int engine tstar (hedge_base + (i * stride) + u)
              end)
            bookings;
          if Xc_sim.Metrics.on () then begin
            Xc_sim.Metrics.counter_incr lb_requests;
            Xc_sim.Metrics.counter_add lb_clones_spawned (float_of_int d);
            if d > 1 then
              Xc_sim.Metrics.counter_add lb_clones_cancelled (float_of_int (d - 1))
          end;
          start.(k) <- wstart;
          finish.(k) <- tstar;
          hedge_ns.(k) <- !hedge);
      if Xc_sim.Metrics.on () then begin
        Xc_sim.Metrics.gauge_add platform_in_flight 1.;
        Xc_sim.Metrics.counter_incr net_messages
      end;
      due.(k) <- finish.(k) +. half_rtt;
      Engine.schedule_int engine due.(k) ((2 * k) + 1)
    end
  in
  let trace_bundle st k =
    let now = due.(k) and sent_at = sent.(k) in
    (* value = per-server completion index: a stable request id that
       per-request tooling (Profile.slowest) reads back from the
       span. *)
    let bundle = config.trace_mechanisms <> [] in
    (* [shift] re-bases the whole bundle onto the sequential lane; 0
       keeps the legacy real-time request span when no mechanism
       decomposition was configured. *)
    let shift =
      if bundle then begin
        let c = synth_cursor.(0) in
        synth_cursor.(0) <- c +. (now -. sent_at);
        c -. sent_at
      end
      else 0.
    in
    Xc_trace.Trace.span ~at:(sent_at +. shift)
      ~value:(float_of_int st.completed) ~cat:"request" ~name:"closed-loop"
      (now -. sent_at);
    (* Synthetic mechanism children nested inside the request window,
       so tail attribution can partition it exactly: the
       client->server hop, queue wait, the configured mechanism
       decomposition laid out serially over the service window
       (clamped — jitter can make the sampled service shorter than the
       deterministic decomposition; any excess stays request
       self-time), and the return hop. *)
    if bundle then begin
      let arrival = arrival.(k) and start = start.(k) and finish = finish.(k) in
      if half_rtt > 0. then
        Xc_trace.Trace.span ~at:(sent_at +. shift)
          ~cat:Xc_trace.Mechanism.(to_string Net_hop)
          ~name:"client->server" half_rtt;
      if start -. arrival > 0. then
        Xc_trace.Trace.span ~at:(arrival +. shift) ~cat:"sched"
          ~name:"queue-wait" (start -. arrival);
      let cursor = ref (start +. shift) in
      let budget = finish +. shift in
      List.iter
        (fun (r : Price.row) ->
          let d = Float.min r.ns (budget -. !cursor) in
          if d > 0. then begin
            Xc_trace.Trace.span ~at:!cursor
              ~cat:(Xc_trace.Mechanism.to_string r.mech)
              ~name:r.name d;
            cursor := !cursor +. d
          end)
        config.trace_mechanisms;
      (* Hedge overhead: unit time the losing clones held before
         cancellation, clamped like the mechanism rows; the name
         carries the clone fan-out (1ns floor keeps it visible when
         siblings never started). *)
      (match hedge_rows.(k / conns) with
      | Some name ->
          let d = Float.min (Float.max hedge_ns.(k) 1.) (budget -. !cursor) in
          if d > 0. then begin
            Xc_trace.Trace.span ~at:!cursor ~cat:"lb.hedge" ~name d;
            cursor := !cursor +. d
          end
      | None -> ());
      if half_rtt > 0. then
        Xc_trace.Trace.span ~at:(finish +. shift)
          ~cat:Xc_trace.Mechanism.(to_string Net_hop)
          ~name:"server->client" half_rtt
    end
  in
  let respond engine k =
    let now = due.(k) and sent_at = sent.(k) in
    if Xc_sim.Metrics.on () then
      Xc_sim.Metrics.gauge_add platform_in_flight (-1.);
    if sent_at >= measure_start && now <= measure_end then begin
      let st = states.(k / conns) in
      st.completed <- st.completed + 1;
      Histogram.add st.latencies (now -. sent_at);
      if Xc_sim.Metrics.on () then begin
        Xc_sim.Metrics.counter_incr platform_requests;
        Xc_sim.Metrics.observe platform_latency_ns (now -. sent_at)
      end;
      if Xc_trace.Trace.enabled () then trace_bundle st k
    end;
    send engine k
  in
  let handler engine code =
    if code < hedge_base then
      if code land 1 = 0 then send engine (code lsr 1)
      else respond engine (code lsr 1)
    else begin
      let c = code - hedge_base in
      match policies.(c / stride) with
      | Some (p, _) -> Xc_lb.Policy.complete p (c mod stride)
      | None -> assert false
    end
  in
  let engine = Engine.create ~handler () in
  Array.iteri
    (fun i st ->
      for c = 0 to conns - 1 do
        (* Stagger initial sends a little to avoid a thundering herd. *)
        let k = (i * conns) + c in
        due.(k) <- Prng.float st.rng 1e6;
        Engine.schedule_int engine due.(k) (2 * k)
      done)
    states;
  Engine.run engine;
  List.map
    (fun st ->
      {
        throughput_rps = float_of_int st.completed /. (config.duration_ns /. 1e9);
        mean_latency_ns = Histogram.mean st.latencies;
        p50_ns = Histogram.percentile st.latencies 50.;
        p99_ns = Histogram.percentile st.latencies 99.;
        completed = st.completed;
      })
    (Array.to_list states)

let make_state seed i server =
  {
    server;
    unit_free = Array.make (Stdlib.max 1 server.units) 0.;
    latencies = Histogram.create ();
    completed = 0;
    rng = Prng.create (seed + (i * 7919));
  }

let run config server =
  match run_states config [ make_state config.seed 0 server ] with
  | [ r ] -> r
  | _ -> assert false

let run_many config servers =
  run_states config (List.mapi (make_state config.seed) servers)
