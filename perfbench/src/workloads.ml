(* The three benchmark workloads: suite text -> priced cells (set-up)
   -> one pass over every cell (the timed phase).

   Every call into a simulator layer is bracketed by a {!Spans} span
   named after the layer's module, so a traced run can report self
   time per layer without touching library code. *)

module Spec = Xc_suite.Spec
module Suite = Xc_suite.Suite
module CL = Xc_platforms.Closed_loop
module OL = Xc_platforms.Open_loop
module CS = Xc_platforms.Cluster_sim
module Platform = Xc_platforms.Platform
module Recipe = Xc_apps.Recipe
module Trace = Xc_trace.Trace
module Profile = Xc_trace.Profile
module Export = Xc_trace.Export
module Critical_path = Xc_obs.Critical_path
module Metrics = Xc_sim.Metrics
module Parallel = Xc_sim.Parallel

let span = Spans.span

(* The seed at which the stored reference digests apply; every spec's
   own seed is shifted by [--seed - default_seed], so the default seed
   reproduces the registry cells exactly. *)
let default_seed = 42

let shift_seed ~seed s =
  let m = 1 lsl 30 in
  (((s + seed - default_seed) mod m) + m) mod m

type run =
  | Closed of CL.config * CL.server
  | Open of OL.config * CL.server
  | Cluster of CS.config

type cell = { name : string; run : run; traced : bool }

let layer_of = function
  | Closed _ -> "closed_loop"
  | Open _ -> "open_loop"
  | Cluster _ -> "cluster_sim"

(* Pending engine events a cell holds: one per closed-loop client.  An
   open-loop cell's depth is its measured queue high-water mark. *)
let static_depth = function
  | Closed (c, _) -> c.CL.connections
  | Open _ -> 0
  | Cluster c -> c.CS.containers * c.CS.connections_per_container

type stats = {
  throughput : float;
  mean : float;
  p50 : float;
  p99 : float;
  completed : int;
  container_switches : int;
  process_switches : int;
  max_queue : int;
}

let stats_text s =
  Printf.sprintf "%h %h %h %h %d %d %d %d" s.throughput s.mean s.p50 s.p99
    s.completed s.container_switches s.process_switches s.max_queue

(* Open-loop and cluster results report a rate over the measurement
   window; the completion count is recovered exactly from it. *)
let count_of ~rps ~duration_ns = int_of_float (Float.round (rps *. duration_ns /. 1e9))

let execute cell =
  span (layer_of cell.run) @@ fun () ->
  match cell.run with
  | Closed (c, server) ->
      let r = CL.run c server in
      {
        throughput = r.CL.throughput_rps;
        mean = r.CL.mean_latency_ns;
        p50 = r.CL.p50_ns;
        p99 = r.CL.p99_ns;
        completed = r.CL.completed;
        container_switches = 0;
        process_switches = 0;
        max_queue = 0;
      }
  | Open (c, server) ->
      let r = OL.run c server in
      {
        throughput = r.OL.completed_rps;
        mean = r.OL.mean_latency_ns;
        p50 = r.OL.p50_ns;
        p99 = r.OL.p99_ns;
        completed = count_of ~rps:r.OL.completed_rps ~duration_ns:c.OL.duration_ns;
        container_switches = 0;
        process_switches = 0;
        max_queue = r.OL.max_queue;
      }
  | Cluster c ->
      let r = CS.run c in
      {
        throughput = r.CS.throughput_rps;
        mean = r.CS.mean_latency_ns;
        p50 = Float.nan;
        p99 = r.CS.p99_latency_ns;
        completed = count_of ~rps:r.CS.throughput_rps ~duration_ns:c.CS.duration_ns;
        container_switches = r.CS.container_switches;
        process_switches = r.CS.process_switches;
        max_queue = 0;
      }

(* ------------------------------------------------------------------ *)
(* Set-up: parse the suite, then price every spec into a cell — the
   same construction as [Xc_suite.Driver], split so that pricing is
   paid once, before the first simulated event. *)

let fail fmt = Printf.ksprintf failwith fmt

let hedge (spec : Spec.t) =
  match Spec.param spec "policy" with
  | None -> None
  | Some p ->
      let kind =
        match Xc_lb.Policy.kind_of_string p with
        | Ok k -> k
        | Error m -> fail "%s: %s" spec.Spec.name m
      in
      let clones =
        match Spec.param_int spec "clones" ~default:1 with
        | Ok n -> n
        | Error m -> fail "%s: %s" spec.Spec.name m
      in
      Some { Xc_lb.Policy.kind; clones }

let price ~seed (spec : Spec.t) =
  let seed = shift_seed ~seed spec.Spec.seed in
  let traced = spec.Spec.capture.Spec.trace in
  let duration_ns = Spec.duration_ns spec and warmup_ns = Spec.warmup_ns spec in
  let w = Xc_suite.Workload.find_exn spec.Spec.workload in
  let platform = Platform.create spec.Spec.platform in
  let run =
    match spec.Spec.load.Spec.shape with
    | Spec.Closed ->
        let server =
          Xcontainers.Figures.server_for_public spec.Spec.platform platform
            w.Xc_suite.Workload.tag
        in
        let trace_mechanisms =
          if traced then Recipe.mechanisms platform w.Xc_suite.Workload.recipe
          else []
        in
        Closed
          ( {
              CL.default_config with
              CL.connections = spec.Spec.load.Spec.connections;
              duration_ns;
              warmup_ns;
              seed;
              trace_mechanisms;
            },
            server )
    | Spec.Open ->
        let service = Recipe.service_ns platform w.Xc_suite.Workload.recipe in
        let units = 4 in
        let server = { CL.units; service_ns = (fun _ -> service); overhead_ns = 0. } in
        let rate_rps =
          spec.Spec.load.Spec.rate *. (float_of_int units *. 1e9 /. service)
        in
        Open (OL.config ~duration_ns ~warmup_ns ~seed ~rate_rps (), server)
    | Spec.Cluster ->
        if spec.Spec.fidelity <> Spec.Exact || spec.Spec.load.Spec.nodes <> 1 then
          fail "%s: the benchmark runs single-node exact cluster cells" spec.Spec.name;
        let c =
          CS.config_of_platform ~containers:spec.Spec.load.Spec.containers
            ~connections:spec.Spec.load.Spec.connections ?lb:(hedge spec) platform
        in
        Cluster { c with CS.duration_ns; warmup_ns; seed }
  in
  { name = spec.Spec.name; run; traced }

let setup ~seed ~name text =
  let suite =
    span "suite" @@ fun () ->
    match Suite.parse ~name text with Ok s -> s | Error m -> fail "%s: %s" name m
  in
  span "pricing" @@ fun () ->
  List.map (price ~seed) suite.Suite.specs

(* ------------------------------------------------------------------ *)
(* One pass over the cells. *)

type outcome = {
  cell : string;
  digest : string;  (** hex MD5 of the cell's simulated outputs *)
  problems : string list;  (** failed invariants; [] when the cell is sound *)
  requests : int;  (** simulated requests completed by this cell's runs *)
  depth : int;  (** pending-event depth the cell held *)
  layer : string;
  trace_events : int;
  dropped : int;
  snapshots : int;
  export_bytes : int;
  switches : int;  (** scheduler switches (cluster cells) *)
}

let plain_outcome cell stats =
  {
    cell = cell.name;
    digest = Digest.to_hex (Digest.string (stats_text stats));
    problems = (if stats.completed > 0 then [] else [ "no request completed" ]);
    requests = stats.completed;
    depth = max (static_depth cell.run) stats.max_queue;
    layer = layer_of cell.run;
    trace_events = 0;
    dropped = 0;
    snapshots = 0;
    export_bytes = 0;
    switches = stats.container_switches + stats.process_switches;
  }

let run_plain cells =
  List.map
    (fun c ->
      let o = plain_outcome c (execute c) in
      Calibrate.tick ();
      o)
    cells

let close_enough a b = Float.abs (a -. b) <= (1e-9 *. Float.abs b) +. 1e-6

(* The traced half of tail-attribution, for one cell: attribution and
   the p99 tail, the critical path, the three exports, then the
   invariants — tails partition and per-request chains telescope. *)
let analyse cell ~untraced ~traced ~snapshots (cap : Trace.captured) =
  let evs = cap.Trace.events in
  let label = cell.name in
  let att, tail =
    span "profile" @@ fun () ->
    let att = Profile.attribute evs in
    match Profile.request_totals att with
    | [] -> (att, None)
    | totals ->
        let cut =
          Xc_sim.Histogram.percentile_floor (Xc_sim.Histogram.of_samples totals) 99.
        in
        (att, Some (Profile.tail_of ~label ~pct:99. ~cut_ns:cut att))
  in
  let chains, summary =
    span "critical_path" @@ fun () ->
    let t = Critical_path.extract evs in
    (t.Critical_path.chains, Critical_path.summarize t)
  in
  let tails_csv, bytes =
    span "export" @@ fun () ->
    let csv = Export.to_tails_csv (Option.to_list tail) in
    let folded = Export.to_folded [ (label, evs) ] in
    let chrome = Export.to_chrome ~dropped:cap.Trace.dropped [ (label, evs) ] in
    (csv, String.length csv + String.length folded + String.length chrome)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if traced.completed <= 0 then problem "no request completed";
  if tail = None then problem "trace has no request spans";
  if cap.Trace.dropped > 0 then problem "%d trace events dropped" cap.Trace.dropped;
  if stats_text traced <> stats_text untraced then
    problem "tracing changed the simulated statistics";
  let partition =
    List.fold_left
      (fun a (r : Profile.attributed_request) ->
        List.fold_left (fun a (_, _, ns) -> a +. ns) (a +. r.Profile.req_self) r.Profile.req_mech)
      att.Profile.unattributed_ns att.Profile.areqs
  in
  if not (close_enough partition att.Profile.total_self_ns) then
    problem "tails partition sums to %h, not %h" partition att.Profile.total_self_ns;
  List.iter
    (fun (ch : Critical_path.chain) ->
      let sum =
        List.fold_left (fun a (s : Critical_path.segment) -> a +. s.Critical_path.seg_ns) 0.
          ch.Critical_path.segments
      in
      if not (close_enough sum ch.Critical_path.chain_total) then
        problem "request %d: chain sums to %h, not %h" ch.Critical_path.chain_id sum
          ch.Critical_path.chain_total)
    chains;
  let cp_text =
    String.concat ";"
      (Printf.sprintf "%d %h %h" summary.Critical_path.n_chains summary.Critical_path.path_ns
         summary.Critical_path.sum_unattributed_ns
      :: List.map
           (fun (s : Critical_path.segment) ->
             Printf.sprintf "%s %d %h" s.Critical_path.seg_label s.Critical_path.seg_spans
               s.Critical_path.seg_ns)
           summary.Critical_path.shares)
  in
  {
    cell = cell.name;
    digest =
      Digest.to_hex
        (Digest.string (String.concat "\n" [ stats_text traced; tails_csv; cp_text ]));
    problems = List.rev !problems;
    requests = untraced.completed + traced.completed;
    depth = static_depth cell.run;
    layer = layer_of cell.run;
    trace_events = List.length evs;
    dropped = cap.Trace.dropped;
    snapshots;
    export_bytes = bytes;
    switches = traced.container_switches + traced.process_switches;
  }

let trace_capacity = 1 lsl 17

(* Every cell runs untraced, then again with simulated-system tracing
   and telemetry on, one shard per cell through the shard pool at
   jobs 1.  Each shard drains the recorders itself — so every capture
   starts on a fresh synthetic cursor — and analyses its capture
   before the next cell runs, so one capture is live at a time. *)
let run_attributed cells =
  let untraced =
    span "twins" @@ fun () ->
    List.map
      (fun c ->
        let s = execute c in
        Calibrate.tick ();
        s)
      cells
  in
  let shard (cell, untraced) =
    Parallel.Shard.thunk (fun () ->
        span "shard" @@ fun () ->
        let traced = execute cell in
        let cap = span "trace" Trace.drain in
        let tel = span "metrics" Metrics.drain in
        let snapshots = List.length tel.Metrics.snapshots + tel.Metrics.snap_dropped in
        let o = analyse cell ~untraced ~traced ~snapshots cap in
        Calibrate.tick ();
        o)
  in
  Trace.enable ~capacity:trace_capacity ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ())
    (fun () ->
      span "parallel" @@ fun () ->
      Parallel.run_sharded ~jobs:1 (List.map shard (List.combine cells untraced)))

(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  text : unit -> string;  (** the suite text the set-up parses *)
  pass : cell list -> outcome list;
}

let macro_closed =
  {
    name = "macro-closed";
    text =
      (fun () ->
        match Xc_suite.Registry.spec_text "macro-extra" with
        | Some t -> t
        | None -> fail "registry has no macro-extra suite");
    pass = run_plain;
  }

let sched_deep =
  { name = "sched-deep"; text = (fun () -> Suite_text.sched_deep); pass = run_plain }

let tail_attribution =
  {
    name = "tail-attribution";
    text = (fun () -> Suite_text.tail_attribution);
    pass = run_attributed;
  }

let all = [ macro_closed; sched_deep; tail_attribution ]
let find name = List.find_opt (fun w -> w.name = name) all
