(** Discrete-event simulation engine.

    A classic event-list simulator: callbacks scheduled at absolute
    simulated times, executed in timestamp order (insertion order among
    ties, so runs are deterministic).  The throughput experiments (Figures
    3, 6, 8, 9) run client/server loops on top of this engine.

    Events scheduled at exactly the current timestamp take a FIFO fast
    lane that bypasses the heap entirely; ordering is unchanged (events
    already queued for the same timestamp still run first, since they
    were scheduled earlier).

    An event is either a closure ({!schedule}) or an int ({!schedule_int})
    delivered to the handler the engine was created with.  Both kinds
    share one queue and one order.  Int events allocate nothing: a
    driver that keeps its per-request state in arrays indexed by the
    int runs without a closure per event. *)

type t

val create : ?handler:(t -> int -> unit) -> unit -> t
(** [create ?handler ()] makes an engine at time zero.  [handler t k]
    runs each int event [k]; without it, {!schedule_int} raises. *)

val now : t -> Time_ns.t
(** Current simulated time. *)

val schedule : t -> Time_ns.t -> (t -> unit) -> unit
(** [schedule t at f] runs [f] when the clock reaches [at].  Scheduling in
    the past or at a NaN time raises [Invalid_argument]. *)

val schedule_int : t -> Time_ns.t -> int -> unit
(** [schedule_int t at k] calls the engine's handler with [k] when the
    clock reaches [at], in the same order as closure events.  Raises
    [Invalid_argument] when [at] is in the past or NaN, when [k < 0],
    or when the engine was created without a handler. *)

val schedule_after : t -> Time_ns.t -> (t -> unit) -> unit
(** [schedule_after t delay f] = [schedule t (now t + delay) f]. *)

val pending : t -> int
(** Number of events not yet executed. *)

val closure_slots : t -> int
(** Size of the closure slot table: the most closure events ever
    pending at once.  A slot is reused once its closure has run. *)

val events_executed : t -> int
(** Events executed by this engine so far — the numerator of the
    events-per-second throughput metric the bench harness reports. *)

val domain_events : unit -> int
(** Cumulative events executed in the {e current domain} by every
    engine created in it.  The bench harness reads this before and
    after an experiment to attribute event counts per experiment even
    when the engines are internal to the experiment's code. *)

val add_domain_events : int -> unit
(** Credit [n] externally-simulated events (e.g. ISA-machine
    instruction steps) to the current domain's counter, so engine-less
    experiments still report real event counts. *)

val step : t -> bool
(** Execute the next event; [false] if the queue was empty. *)

val run : ?until:Time_ns.t -> t -> unit
(** Run until the queue drains or the clock would pass [until].  With
    [until], the clock is left at exactly [until] if reached. *)

val run_for : t -> Time_ns.t -> unit
(** [run_for t d] = [run ~until:(now t + d) t]. *)
