(* The generic interpreter: a {!Spec.t} into the existing engines.

   Closed specs reproduce the bench macro-sweep cell exactly —
   [Closed_loop.default_config] overridden by the spec's typed fields,
   a [Figures.server_for_public] server — so a registry spec and a
   hand-written driver cannot diverge (the differential golden tests
   pin this).  Open specs drive [Open_loop] at [rate] x the server's
   own capacity; cluster specs fan [nodes] seeded [Cluster_sim] nodes
   at the requested fidelity tier. *)

module Figures = Xcontainers.Figures
module CL = Xc_platforms.Closed_loop
module OL = Xc_platforms.Open_loop
module CS = Xc_platforms.Cluster_sim

type row = {
  spec : Spec.t;
  throughput_rps : float;
  mean_ns : float;
  p50_ns : float;  (** NaN for cluster shapes (no per-request p50) *)
  p99_ns : float;  (** NaN on the fluid tier *)
}

(* What-if service pricing: the recipe's priced rows with each whatif
   axis applied, summed back to a deterministic service time.  Used on
   closed/open shapes whenever the spec carries what-ifs — so a whatif
   spec's baseline is its [whatif.MECH = 1] sibling (same decomposed
   pricing), not the bespoke per-app server model. *)
let whatif_service (spec : Spec.t) platform recipe =
  Xc_platforms.Price.sum
    (Xc_obs.Whatif.scale_rows spec.Spec.whatif
       (Xc_apps.Recipe.mechanisms platform recipe))

let closed_result (spec : Spec.t) =
  let w = Workload.find_exn spec.workload in
  let platform = Xc_platforms.Platform.create spec.platform in
  let server =
    if spec.whatif = [] then
      Figures.server_for_public spec.platform platform w.Workload.tag
    else
      let service = whatif_service spec platform w.Workload.recipe in
      { CL.units = 4; service_ns = (fun _ -> service); overhead_ns = 0. }
  in
  CL.run
    {
      CL.default_config with
      CL.connections = spec.load.connections;
      duration_ns = Spec.duration_ns spec;
      warmup_ns = Spec.warmup_ns spec;
      seed = spec.seed;
    }
    server

let open_result (spec : Spec.t) =
  let w = Workload.find_exn spec.workload in
  let platform = Xc_platforms.Platform.create spec.platform in
  let service =
    if spec.whatif = [] then Xc_apps.Recipe.service_ns platform w.Workload.recipe
    else whatif_service spec platform w.Workload.recipe
  in
  let units = 4 in
  let server = { CL.units; service_ns = (fun _ -> service); overhead_ns = 0. } in
  let rate_rps = spec.load.rate *. (float_of_int units *. 1e9 /. service) in
  OL.run
    (OL.config
       ~duration_ns:(Spec.duration_ns spec)
       ~warmup_ns:(Spec.warmup_ns spec) ~seed:spec.seed ~rate_rps ())
    server

let cluster_fidelity (spec : Spec.t) =
  match spec.fidelity with
  | Spec.Exact -> CS.Exact
  | Spec.Fluid -> CS.Fluid
  | Spec.Mixed n -> CS.Mixed { sample_rate = n }

let cluster_config (spec : Spec.t) =
  let platform = Xc_platforms.Platform.create spec.platform in
  {
    (CS.config_of_platform ~containers:spec.load.containers
       ~connections:spec.load.connections platform)
    with
    CS.duration_ns = Spec.duration_ns spec;
    warmup_ns = Spec.warmup_ns spec;
    seed = spec.seed;
  }

let cluster_results (spec : Spec.t) =
  (* The config is priced, so a validated what-if cannot fail to apply
     — an [Error] here is a logic bug. *)
  let base =
    match Xc_obs.Whatif.apply_cluster_all spec.whatif (cluster_config spec) with
    | Ok c -> c
    | Error m -> invalid_arg (Printf.sprintf "Driver: %s: %s" spec.Spec.name m)
  in
  let fidelity = cluster_fidelity spec in
  List.init spec.load.nodes (fun i ->
      CS.run_fidelity fidelity { base with CS.seed = spec.seed + i })

let run (spec : Spec.t) =
  match spec.load.shape with
  | Spec.Closed ->
      let r = closed_result spec in
      {
        spec;
        throughput_rps = r.CL.throughput_rps;
        mean_ns = r.CL.mean_latency_ns;
        p50_ns = r.CL.p50_ns;
        p99_ns = r.CL.p99_ns;
      }
  | Spec.Open ->
      let r = open_result spec in
      {
        spec;
        throughput_rps = r.OL.completed_rps;
        mean_ns = r.OL.mean_latency_ns;
        p50_ns = r.OL.p50_ns;
        p99_ns = r.OL.p99_ns;
      }
  | Spec.Cluster ->
      let rs = cluster_results spec in
      let n = float_of_int (List.length rs) in
      let tput =
        List.fold_left (fun a (r : CS.result) -> a +. r.CS.throughput_rps) 0. rs
      in
      let mean =
        List.fold_left (fun a (r : CS.result) -> a +. r.CS.mean_latency_ns) 0. rs
        /. n
      in
      (* Worst non-NaN p99 across nodes (the fluid tier predicts no
         tail); NaN only if no node produced one. *)
      let p99 =
        List.fold_left
          (fun a (r : CS.result) ->
            let p = r.CS.p99_latency_ns in
            if Float.is_nan p then a
            else if Float.is_nan a || p > a then p
            else a)
          Float.nan rs
      in
      { spec; throughput_rps = tput; mean_ns = mean; p50_ns = Float.nan; p99_ns = p99 }

(* ------------------------------------------------------------------ *)
(* Suite runs: one pool shard per spec, instrumented like the bench
   harness so traced/telemetry runs stay byte-identical at any --jobs
   (captures drain at shard boundaries and merge in spec order). *)

let run_suite ?jobs (t : Suite.t) =
  Xc_sim.Parallel.run_sharded ?jobs
    (List.map
       (fun spec ->
         Xc_sim.Parallel.Shard.thunk (fun () ->
             (spec.Spec.name, Xc_sim.Capture.measure (fun () -> run spec))))
       t.Suite.specs)

let wants_trace (t : Suite.t) =
  List.exists
    (fun (s : Spec.t) -> s.Spec.capture.Spec.trace || s.Spec.capture.Spec.tails)
    t.Suite.specs

let wants_timeseries (t : Suite.t) =
  List.exists (fun (s : Spec.t) -> s.Spec.capture.Spec.timeseries) t.Suite.specs

let sample_stride (t : Suite.t) =
  List.fold_left
    (fun a (s : Spec.t) -> max a s.Spec.capture.Spec.sample)
    1 t.Suite.specs

let interval_us (t : Suite.t) =
  let v =
    List.fold_left
      (fun a (s : Spec.t) ->
        let i = s.Spec.capture.Spec.interval_us in
        if i > 0 && (a = 0 || i < a) then i else a)
      0 t.Suite.specs
  in
  if v = 0 then 50 else v

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

module T = Xc_sim.Table

let fmt_us v =
  if Float.is_nan v then "-" else Printf.sprintf "%.0fus" (v /. 1e3)

let render ?title rows =
  let t =
    T.create ?title
      [
        ("experiment", T.Left);
        ("platform", T.Left);
        ("workload", T.Left);
        ("shape", T.Left);
        ("req/s", T.Right);
        ("mean", T.Right);
        ("p50", T.Right);
        ("p99", T.Right);
      ]
  in
  List.iter
    (fun r ->
      T.add_row t
        [
          r.spec.Spec.name;
          Spec.Config.name r.spec.Spec.platform;
          r.spec.Spec.workload;
          Spec.shape_to_string r.spec.Spec.load.Spec.shape;
          T.fmt_si r.throughput_rps;
          fmt_us r.mean_ns;
          fmt_us r.p50_ns;
          fmt_us r.p99_ns;
        ])
    rows;
  T.render t

let csv rows =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "experiment,platform,workload,shape,throughput_rps,mean_ns,p50_ns,p99_ns\n";
  List.iter
    (fun r ->
      Printf.bprintf b "%s,%s,%s,%s,%.3f,%.3f,%.3f,%.3f\n" r.spec.Spec.name
        (Spec.Config.name r.spec.Spec.platform)
        r.spec.Spec.workload
        (Spec.shape_to_string r.spec.Spec.load.Spec.shape)
        r.throughput_rps r.mean_ns r.p50_ns r.p99_ns)
    rows;
  Buffer.contents b
