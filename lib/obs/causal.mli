(** Causal what-if profiling: predicted vs rerun virtual speedups.

    A hardware causal profiler (Coz) must {e approximate} "what would
    making X faster buy" by slowing everything else down.  This is a
    simulator with an explicit cost model, so both halves are exact:

    + {b predict} from the baseline's attribution — if mechanism [m]
      costs [c] ns of an [E[R]]-ns request on average, scaling it by
      [s] predicts [E[R'] = E[R] + (s-1)c], and the closed loop
      ([N] clients, zero think time — the cluster client fires the
      next request on response) pins throughput to [X' = N/E[R'] =
      X * E[R]/E[R']].  The p99 prediction shifts the baseline p99 by
      the mechanism's mean share of the {e tail} requests (the
      attribution above the p99 cut).
    + {b rerun} the simulation with the mechanism actually re-priced
      ({!Whatif.apply_cluster}).

    The residual between the two is the experiment's finding: linear
    attribution cannot see queueing amplification, so off the
    scheduling knee (light load, [--connections 1]) prediction lands
    within a few percent of the rerun, while at the knee
    ([--connections 5]) the rerun moves further than the share says —
    exactly the regime where the fig9 tail is queueing-dominated.

    Baselines run traced (a [2^18]-event ring unless tracing is
    already on); rerun points are plain runs.  {!sweep} fans baselines
    and reruns out over the {!Xc_sim.Parallel} shard layer and
    reassembles in submission order, so every artifact is
    byte-identical at any [--jobs]. *)

module CS = Xc_platforms.Cluster_sim

type target = { label : string; config : CS.config }
(** A priced platform point ({!CS.config_of_platform} — price before
    tracing) under a display label. *)

type baseline = {
  base : CS.result;
  n_requests : int;  (** attributed requests in the traced window *)
  p99_cut_ns : float;  (** the tail cut used for [mech_tail_mean] *)
  path : Critical_path.summary;
  mech_mean : (string * float) list;
      (** mean attributed ns per request, per mechanism category *)
  mech_tail_mean : (string * float) list;
      (** mean attributed ns per {e tail} request (>= p99 cut) *)
}

type prediction = {
  pred_tput : float;
  pred_mean_ns : float;
  pred_p99_ns : float;
}

type point = {
  pt_label : string;
  pt_whatif : Whatif.t;
  pt_base : CS.result;
  pt_pred : prediction;
  pt_rerun : CS.result;
}

val measure_baseline : CS.config -> baseline
(** One traced run plus its attribution and critical-path summary.
    Call with tracing on ({!Xc_sim.Capture.with_capture}); with
    tracing off (or a config without [request_mech] pricing) the
    attribution comes back empty and predictions degenerate to the
    baseline. *)

val point : label:string -> baseline -> Whatif.t -> CS.result -> point
(** A rerun result beside its baseline and the linear-share prediction
    above.  A mechanism with no attributed time predicts no change. *)

val run_point : target -> Whatif.t -> (baseline * point, string) result
(** Sequential single point: traced baseline, prediction, re-priced
    rerun.  [Error] if the what-if does not apply to the config. *)

val sweep :
  ?jobs:int ->
  targets:target list ->
  whatifs:Whatif.t list ->
  unit ->
  ((string * baseline) list * point list, string) result
(** The full grid: one traced baseline per target, one rerun per
    (target x what-if), all validated up front and fanned out as
    independent pool shards.  Baselines come back in target order,
    points in (target, what-if) row-major order — identical at any
    [jobs]. *)

val render_points : point list -> string
(** The predicted-vs-rerun table: throughput and p99 triples per point
    with signed residuals ([100 * (pred - rerun) / rerun]). *)

val points_csv : point list -> string
(** One row per point, fixed-precision floats — byte-identical at any
    [--jobs]. *)

val render_baseline : label:string -> baseline -> string
(** Baseline numbers plus the critical-path share table. *)
