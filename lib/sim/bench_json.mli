(** Writer, reader and regression gate for [BENCH_sim.json] artifacts
    (schema v3 — see docs/PERF.md).  Backs [xc bench check]: compare the
    artifact of the current run against a committed baseline and flag
    a > threshold throughput or wall-clock regression. *)

type summary = {
  git : string;  (** [git describe] of the tree that produced the run *)
  schema_version : int;  (** >= 2; older artifacts are rejected *)
  jobs : int;
  total_wall_s : float;
  total_events : int;
  events_per_sec : float;
}

val of_string : string -> (summary, string) result
(** Parse an artifact's top-level fields.  Accepts exactly what the
    bench harness writes; schema v1 files (no [schema_version]) are an
    [Error] asking for a refresh. *)

val of_file : string -> (summary, string) result

type experiment = {
  name : string;
  wall_s : float;
  events : int;
  events_per_sec : float;
  spec : string option;
      (** schema v3: the declarative suite spec that produced this
          experiment, unescaped back to its canonical text form (parse
          it with [Xc_suite.Suite.parse] to re-run); [None] for older
          artifacts and for hand-coded extras (micro, csv) *)
}

val experiments_of_string : string -> experiment list
(** The per-experiment records of an artifact (everything after the
    ["experiments":] key), in artifact order; empty when the field is
    missing.  Braces inside quoted strings do not end a record.  Backs
    the per-experiment trajectory in [Bench_history]. *)

(** {1 Writing} *)

val escape : string -> string
(** JSON string-body escaping: quote, backslash and newline by name,
    other control characters as [\u00XX]. *)

val experiment : ?spec:string -> name:string -> wall_s:float -> int -> experiment
(** A record for [events] executed in [wall_s], its rate derived (0
    when no wall time was measured). *)

val experiment_to_string : experiment -> string
(** One-line JSON object; the ["spec"] field only when present. *)

val to_string :
  git:string ->
  seed:int ->
  trace:string option ->
  jobs:int ->
  wall_s:float ->
  experiment list ->
  string
(** The whole artifact (schema v3), totals derived from the records;
    {!of_string} and {!experiments_of_string} read it back. *)

type verdict = {
  metric : string;  (** ["events_per_sec"] or ["total_wall_s"] *)
  baseline_v : float;
  current_v : float;
  change_pct : float;
      (** (current - baseline) / baseline * 100; NaN when [fresh] *)
  regressed : bool;
  fresh : bool;
      (** the baseline is 0 and the current value is not: the metric
          just came into existence, so there is no trend to compare —
          rendered as ["NEW (baseline 0)"] instead of a silently-green
          [+0.0% ok] *)
}

val default_threshold_pct : float
(** 3.0 — the ROADMAP's regression budget. *)

val check :
  ?threshold_pct:float -> baseline:summary -> current:summary -> unit -> verdict list
(** One verdict per metric: throughput regresses when it {e drops} by
    more than the threshold, wall-clock when it {e rises} by more.  A
    metric whose baseline is 0 while the current value is not gets a
    [fresh] verdict (never [regressed], [change_pct] NaN) — the old
    behaviour divided into a [+0.0%] that could never regress. *)

val regressed : verdict list -> bool

val render :
  ?threshold_pct:float -> baseline:summary -> current:summary -> verdict list -> string
(** Human-readable comparison table naming both commits (the schema-v2
    [git] field), with a warning when the two runs used different
    [jobs]. *)
