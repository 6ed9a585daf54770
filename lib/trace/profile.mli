(** Profiles over trace event lists: collapsed-stack folding for
    flamegraphs, rescaling of sampled aggregates, and per-request
    attribution.

    The synthetic-cursor timeline (see {!Trace}) makes nesting
    recoverable from timestamps alone: a span that starts inside
    another span's [ts, ts+dur) window and ends inside it is its
    child.  Folding that containment relation yields exactly the
    collapsed-stack format flamegraph tools consume. *)

val fmt_ns : float -> string
(** Human format for nanoseconds: [742ns], [3.40us], [1.25ms],
    [2.100s].  (Re-exported as [Export.fmt_ns].) *)

(** {1 Flamegraph folding} *)

val sorted_spans : Trace.event list -> Trace.event array
(** The positive-duration spans in canonical order: by start time; at
    equal starts the longer span first (it is the parent); then by
    [cat], then [name].  Stable, so the order is deterministic whatever
    the input order.  {!fold}, {!attribute} and the critical-path
    extractor all sweep this order. *)

val fold : ?root:string -> Trace.event list -> (string * float) list
(** Fold the span timeline into [(stack, self_ns)] rows, sorted by
    stack.  Each span contributes the frame ["cat;name"]; nested spans
    extend their parent's stack, and a parent's self-time excludes its
    direct children.  [root] prepends one frame (e.g. the track name)
    to every stack.  Instants, counters and zero-duration spans do not
    appear. *)

val to_folded : (string * Trace.event list) list -> string
(** Render tracks as collapsed-stack lines — [stack count\n] with the
    track name as root frame and self-time nanoseconds (rounded to
    integers; sub-nanosecond rows are dropped) as the count — ready
    for [flamegraph.pl] or speedscope.  Deterministic: rows are sorted
    by stack. *)

(** {1 Sampled-trace rescaling} *)

val rescale : streams:Trace.Stream.t list -> Trace.event list -> Trace.event list
(** Multiply every span's duration by its stream's [seen/kept] factor,
    turning a sampled trace into an unbiased estimator of the full
    trace's aggregate costs.  Events whose (cat,name) has no stream
    entry (or kept = seen) pass through unchanged; [streams = []] is
    the identity. *)

val totals_by_cat :
  ?streams:Trace.Stream.t list -> Trace.event list -> (string * float) list
(** Total span nanoseconds per category, largest first (ties by
    category name).  With [~streams], totals are rescaled first. *)

val render_streams : Trace.Stream.t list -> string
(** Terminal table of per-stream sampler accounting (seen, kept,
    skipped, scale). *)

(** {1 Per-request attribution} *)

type request = {
  id : int;  (** from the request span's [value] field *)
  name : string;  (** request span name, e.g. ["httpd"] *)
  start : float;  (** span start, ns *)
  total : float;  (** end-to-end duration, ns *)
  by_cat : (string * int * float) list;
      (** (category, span count, total ns) of child spans inside the
          request window, largest first *)
  accounted : float;  (** sum of [by_cat] nanoseconds *)
}

val requests : Trace.event list -> request list
(** Every span with category ["request"], slowest first (ties by start
    then id).  A child is any non-request span whose start lies inside
    the request's [ts, ts+dur) window — the synthetic cursor places
    the mechanism spans charged on behalf of a request inside exactly
    that window. *)

val slowest : k:int -> Trace.event list -> request list
(** First [k] of {!requests}. *)

val render_slowest : ?k:int -> Trace.event list -> string
(** Terminal rendering of the [k] (default 3) slowest requests: one
    block per request with its per-category time breakdown, percentage
    of end-to-end time, and any unattributed remainder. *)

(** {1 Exact self-time tail attribution}

    {!requests} above counts a child span's full duration into every
    request window containing its start — simple, but a nested child
    is double-counted and queueing overlap leaks across requests.  The
    attribution below instead runs the same nesting sweep as {!fold}
    and charges each span's {e self}-time (duration minus direct
    children) to its innermost enclosing [request] span.  Self-times
    telescope, so the per-request buckets plus the [unattributed]
    remainder sum {e exactly} to the total traced self-time (the sum
    of root-span durations) — a partition, with no double counting
    across nested or overlapping requests. *)

type attributed_request = {
  req_id : int;  (** from the request span's [value] field *)
  req_name : string;  (** request span name, e.g. ["cluster"] *)
  req_start : float;  (** span start, ns *)
  req_total : float;  (** end-to-end duration, ns *)
  req_self : float;
      (** request window time not covered by any mechanism span:
          queueing, jitter, think time.  Can be negative when direct
          children overlap each other — kept so the partition stays
          exact. *)
  req_mech : (string * int * float) list;
      (** (category, span count, self ns) of mechanism spans owned by
          this request, largest first (ties by category) *)
}

type attribution = {
  areqs : attributed_request list;
      (** slowest first (ties by start then id), like {!requests} *)
  unattributed_ns : float;
      (** self-time of spans with no enclosing request span *)
  total_self_ns : float;
      (** sum of root-span durations; equals the sum over [areqs] of
          [req_self + sum req_mech] plus [unattributed_ns] *)
}

val attribute : Trace.event list -> attribution
(** Sweep the span timeline (same canonical order and epsilon as
    {!fold}) and partition all self-time between enclosing requests
    and the unattributed bucket. *)

val request_totals : attribution -> float list
(** End-to-end durations of all requests, slowest first. *)

(** {1 Tail cuts} *)

type tail = {
  label : string;  (** which platform/run this tail describes *)
  pct : float;  (** the percentile the cut was computed at *)
  cut_ns : float;  (** latency cut, ns *)
  n_requests : int;  (** requests in the whole attribution *)
  n_tail : int;  (** requests with [req_total >= cut_ns] *)
  tail : attributed_request list;  (** the tail requests, slowest first *)
  tail_mech : (string * int * float) list;
      (** per-mechanism (category, span count, self ns) aggregated
          over the tail requests, largest first *)
  tail_self_ns : float;  (** sum of [req_self] over the tail *)
  tail_total_ns : float;  (** sum of [req_total] over the tail *)
}

val self_frame : string
(** The pseudo-mechanism label ["(request-self)"] used by renderers,
    the tails CSV and tail diffs for uncovered request-window time. *)

val tail_of : ?label:string -> pct:float -> cut_ns:float -> attribution -> tail
(** Aggregate the requests at or above [cut_ns]; [pct] is carried
    along for rendering and export only. *)

val tail_at : ?label:string -> pct:float -> attribution -> tail option
(** The [pct] tail: {!tail_of} at the {!Histogram.percentile_floor}
    cut over {!request_totals}.  [None] when no request span was
    attributed. *)

val render_tail : ?slowest:int -> tail -> string
(** Terminal rendering: the aggregate per-mechanism table (share of
    attributed tail time, with a [(request-self)] row for uncovered
    window time), and with [~slowest:k > 0] a per-request block for
    the [k] slowest tail requests. *)
