(** Virtual-speedup axes: scale one mechanism's cost.

    A what-if is [(mech, scale)] — e.g. [syscall-entry x0.7] means
    "syscall entry costs 70% of what the platform prices today".  The
    mechanism is the tracer's span category, so a what-if names
    exactly the rows that {!Xc_trace.Profile.attribute} and
    {!Critical_path} blame.

    Scaling is applied to {e priced} rows — a recipe's, or a
    {!Xc_platforms.Cluster_sim.config}'s from [config_of_platform] —
    through {!Xc_platforms.Price.scale} and re-totalled through
    {!Xc_platforms.Price.sum}, never by calling back into the
    platform.  Scaling a mechanism with no rows changes nothing, except
    that an {e unpriced} cluster config (empty [request_mech]) is
    rejected outright. *)

type t = { mech : Xc_trace.Mechanism.t; scale : float }

val max_scale : float
(** [10.] — a what-if is a scaling experiment, not a load model. *)

val validate : t -> (unit, string) result
(** Finite scale in [0, {!max_scale}]. *)

val make : mech:string -> scale:float -> (t, string) result
(** A what-if from its parts: the mechanism parsed with
    {!Xc_trace.Mechanism.of_string}, then the scale validated. *)

val float_to_string : float -> string
(** Shortest decimal form that parses back to the identical float:
    the canonical rendering of a scale and of every suite float. *)

val to_string : t -> string
(** Canonical form, e.g. ["syscall-entry x0.7"]. *)

val parse : string -> (t, string) result
(** Accepts ["MECH xS"], ["MECH:S"] and ["MECH=S"]; validated. *)

val scale_rows :
  t list -> Xc_platforms.Price.row list -> Xc_platforms.Price.row list
(** Apply each what-if in turn. *)

val apply_cluster :
  t ->
  Xc_platforms.Cluster_sim.config ->
  (Xc_platforms.Cluster_sim.config, string) result
(** Re-price a cluster config: [cpu], [syscall-*] and [irq] scale the
    [request_mech] rows and re-derive [stage_cpu_ns] as their sums,
    the fold [config_of_platform] uses, so scale [1.] is the identity
    byte for byte; [ctx-switch] scales both switch-cost closures;
    [net.hop] scales [client_rtt_ns].  Errors: an invalid scale, or a
    row-priced mechanism on a config with no [request_mech]. *)

val apply_cluster_all :
  t list ->
  Xc_platforms.Cluster_sim.config ->
  (Xc_platforms.Cluster_sim.config, string) result
(** Left fold of {!apply_cluster}. *)
