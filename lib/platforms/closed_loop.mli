(** Closed-loop benchmark driver (wrk/ab/memtier-style).

    [connections] clients each keep exactly one request outstanding: send,
    wait for the response, immediately send again — the loop wrk and ab
    run.  The server side is a pool of service units (min(workers, cores)
    for process-per-request servers, 1 for single-threaded event loops),
    each serving FIFO.  Per-request scheduling overhead is added on top of
    the service time, which is how container-switch costs surface in
    Figures 3, 6, 8, 9. *)

type server = {
  units : int;  (** parallel service units *)
  service_ns : Xc_sim.Prng.t -> float;  (** per-request service sample *)
  overhead_ns : float;  (** per-request scheduling/switch overhead *)
}

type config = {
  connections : int;
  rtt_ns : float;  (** client-to-server round trip (network + client) *)
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  trace_mechanisms : Price.row list;
      (** When tracing is enabled and this is non-empty, each measured
          request emits a {e bundle}: its [request] span plus synthetic
          mechanism child spans — the two half-RTT [net.hop]s, a
          [sched]/queue-wait span when the request queued, and these
          {!Price.row}s laid out serially over the service
          window (clamped to the sampled service time).  Bundles are
          re-based onto a sequential lane past the end of the simulated
          timeline (concurrent requests overlap in real time, which
          would defeat exact attribution); durations and the internal
          geometry are preserved exactly.  Build the rows with
          [Xc_apps.Recipe.mechanisms] {e before} enabling tracing; the
          default [[]] changes nothing. *)
  lb : Xc_lb.Policy.hedge option;
      (** When set, unit selection goes through a {!Xc_lb.Policy}
          (seeded from [seed]) instead of the built-in earliest-free
          scan, and each request is cloned to [clones] distinct units
          with synchronized service and cancel-on-first-complete: the
          clone with the earliest start wins, siblings hold their unit
          only until the winner finishes (that time is charged to the
          request as an [lb.hedge]/[clone-xD] trace-bundle row), and a
          clone that would start later than that never runs — a full
          refund.  [None] changes nothing. *)
}

val default_config : config
(** 32 connections, LAN RTT, 2s simulated measurement after 0.2s warmup. *)

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  completed : int;
}

val run : config -> server -> result
(** Raises [Invalid_argument] when [connections < 1] or when
    [duration_ns] or [warmup_ns] is negative or not finite. *)

val run_many : config -> server list -> result list
(** Run several servers {i sharing the simulated time axis} but with
    independent queues (one client group per server), e.g. the
    per-container wrk threads of Figure 8.  Validates [config] as
    {!run} does. *)
