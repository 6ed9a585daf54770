(** One measured run, the process-wide capture switches around it, and
    the artifacts written from a list of labelled runs.

    Every run a front end starts ([bench], [xc] and the suite driver)
    goes through {!measure}; the switches are only flipped by
    {!with_capture}, and trace, tails, time-series and Perfetto files
    are only written by the writers below, so all of them share one
    determinism contract: byte-identical at any [--jobs]. *)

type 'a measured = {
  value : 'a;
  wall_s : float;  (** host wall-clock *)
  events : int;  (** engine events executed on this domain during the run *)
  trace : Xc_trace.Trace.captured;
  telemetry : Metrics.telemetry;
}

val measure : (unit -> 'a) -> 'a measured
(** Run a thunk with a fresh trace recorder and telemetry registry on
    this domain (each empty when its switch is off), timing it and
    counting the engine events it executed. *)

val merge : 'a measured list -> 'a list measured
(** Pieces of one run in order: wall times and events add, traces
    {!Xc_trace.Trace.concat}, telemetry merges. *)

val with_capture :
  ?trace:bool ->
  ?capacity:int ->
  ?sample:int ->
  ?metrics:bool ->
  ?interval_ns:float ->
  (unit -> 'a) ->
  'a
(** [with_capture ~trace ~metrics f] runs [f] with tracing and/or
    telemetry switched on.  A switch this call turns on is configured
    from the arguments — ring [capacity] and [sample] stride for
    tracing, snapshot [interval_ns] for telemetry, library defaults
    when omitted — and switched off again when [f] returns or raises.
    A switch that is already on is left as it is, settings included,
    so captures nest. *)

(** {1 Artifacts}

    Each writer takes labelled runs — one track per run, in list
    order — and returns what the caller reports. *)

type 'a tracks = (string * 'a measured) list

val write_tails : path:string -> 'a tracks -> int
(** The p99 tail of every track that emitted request spans, labelled by
    its track name, as a tails CSV; returns the number of tails
    written. *)

val write_trace : path:string -> 'a tracks -> int
(** The span tracks (format by extension, see
    {!Xc_trace.Export.to_file}) with two sidecars of the same
    basename: [.folded] collapsed stacks and the [.tails] p99 tails.
    Returns the number of request-emitting tracks in the sidecar. *)

val write_timeseries : path:string -> 'a tracks -> int
(** The telemetry snapshots as counter tracks; returns the number of
    snapshots written. *)

val write_perfetto : path:string -> 'a tracks -> int
(** One container for Perfetto: each run's span track followed by its
    [NAME/metrics] counter track (when it has one).  Returns the
    number of tracks written. *)
