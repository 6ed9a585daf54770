type t = {
  id : int;
  mutable busy_ns : float;
  metrics : Xc_sim.Metrics.t;
}

let create ~id = { id; busy_ns = 0.; metrics = Xc_sim.Metrics.create () }
let id t = t.id

let cpu_busy_ns = Xc_sim.Metrics.counter ~cat:"cpu" ~name:"busy-ns"

let charge t ?label ns =
  t.busy_ns <- t.busy_ns +. ns;
  (match label with Some l -> Xc_sim.Metrics.incr t.metrics l | None -> ());
  Xc_sim.Metrics.counter_add cpu_busy_ns ns;
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:Xc_trace.Mechanism.(to_string Cpu)
      ~name:(match label with Some l -> l | None -> "busy")
      ns

let busy_ns t = t.busy_ns
let count t label = Xc_sim.Metrics.get t.metrics label
let metrics t = t.metrics

let reset t =
  t.busy_ns <- 0.;
  Xc_sim.Metrics.reset t.metrics

let utilization t ~wall_ns = if wall_ns <= 0. then 0. else t.busy_ns /. wall_ns
