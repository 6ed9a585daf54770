(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) and, with "micro", runs Bechamel
   micro-benchmarks of the simulator's hot paths.

   Usage:
     dune exec bench/main.exe                         # all paper experiments
     dune exec bench/main.exe -- --jobs 4             # same, 4 worker domains
     dune exec bench/main.exe table1 fig4             # a subset
     dune exec bench/main.exe smoke                   # tiny-duration sweep
     dune exec bench/main.exe micro                   # Bechamel suite

   Experiments are independent deterministic simulations, so with
   --jobs N (or XC_JOBS=N) they fan out over N domains via
   Xc_sim.Parallel; output is byte-identical to the sequential run.
   Every run also writes BENCH_sim.json with wall-clock, event count
   and events/sec per experiment, for tracking simulator performance
   across commits.

   --trace[=FILE] additionally records an Xc_trace event trace of
   every experiment (one track per experiment, Chrome trace-event JSON
   or CSV by extension, default BENCH_trace.json) plus a collapsed
   stack flamegraph sidecar (same basename, .folded).  --sample N
   keeps one event per window of N per (cat,name) stream so long runs
   fit one ring.  Trace, folded sidecar and stdout are all
   deterministic and byte-identical at any --jobs.

   --timeseries[=FILE] samples the metric registry every --interval N
   simulated microseconds (default 50) and writes the per-experiment
   time-series (default BENCH_timeseries.csv, Chrome counter events
   when FILE doesn't end in .csv) — also byte-identical at any
   --jobs.

   --perfetto[=FILE] enables both captures and writes one combined
   container (span tracks + counter tracks per experiment, default
   BENCH_perfetto.json) for a single Perfetto/chrome://tracing load.

   --alerts CAT/NAME>V[,CAT/NAME<V...] enables telemetry snapshots and
   checks the rules against every experiment's series after the run;
   any firing is reported to stderr and exits 1 (for CI gates). *)

module T = Xc_sim.Table
module Figures = Xcontainers.Figures
module Config = Xc_platforms.Config
module Spec = Xc_suite.Spec
module Suite = Xc_suite.Suite
module Registry = Xc_suite.Registry
module Sdriver = Xc_suite.Driver

(* The experiment grids live in the declarative suite registry
   (lib/suite): each grid builder below interprets its registry
   suite's specs into cells, byte-identical to the pre-refactor
   hand-coded drivers (pinned by the bench/golden differential
   rules), and the artifact embeds each experiment's resolved spec. *)
let reg_suite name =
  match Registry.find_bench name with
  | Some s -> s
  | None -> (
      match Registry.find_smoke name with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "bench: no registry suite %S" name))

let specs_of name = (reg_suite name).Suite.specs

let distinct xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* All experiment output goes through a domain-local buffer, so an
   experiment can run on a worker domain and still have its output
   emitted whole, in submission order: the parallel run is
   byte-identical to the sequential one by construction. *)
let out_key = Domain.DLS.new_key (fun () -> Buffer.create 8192)
let out () = Domain.DLS.get out_key
let printf fmt = Printf.ksprintf (fun s -> Buffer.add_string (out ()) s) fmt
let print_string s = Buffer.add_string (out ()) s

let print_endline s =
  let b = out () in
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let print_newline () = Buffer.add_char (out ()) '\n'
let print_table t = print_string (T.render t)

let section title =
  printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

(* An experiment is a set of independent cells (shards) plus a printer
   over their index-ordered results; an unsplittable one is a single
   cell ({!whole}).  Cells are the unit the work-stealing pool
   schedules, so the big sweeps (fig3, macro-extra, latency) no longer
   serialize the whole bench behind one worker; the printer runs in the
   deterministic merge phase, so output is byte-identical at any
   --jobs. *)
type body = Cells : { shards : (unit -> 'b) array; print : 'b array -> unit } -> body

let whole f = Cells { shards = [| f |]; print = ignore }

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
  section "Table 1: Automatic Binary Optimization Module (ABOM) efficacy";
  let t =
    T.create
      [
        ("Application", T.Left);
        ("Implementation", T.Left);
        ("Benchmark", T.Left);
        ("Reduction (measured)", T.Right);
        ("Reduction (paper)", T.Right);
      ]
  in
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      let p = m.profile in
      let fmt_m =
        match p.paper_manual_reduction with
        | Some _ ->
            Printf.sprintf "%.1f%% (%.1f%% manual)" (100. *. m.auto_reduction)
              (100. *. m.manual_reduction)
        | None -> Printf.sprintf "%.1f%%" (100. *. m.auto_reduction)
      in
      let fmt_p =
        match p.paper_manual_reduction with
        | Some man ->
            Printf.sprintf "%.1f%% (%.1f%% manual)" (100. *. p.paper_reduction)
              (100. *. man)
        | None -> Printf.sprintf "%.1f%%" (100. *. p.paper_reduction)
      in
      T.add_row t [ p.name; p.implementation; p.benchmark; fmt_m; fmt_p ])
    (Figures.table1 ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

(* One cell per (app × cloud): 6 independent closed-loop sweeps the
   pool can schedule freely; the per-app tables need both clouds, so
   they render in the merge-phase printer from the cell results.  The
   grid (which apps, which clouds, app-major order) comes from the
   registry's fig3 suite. *)
let macro_app_of_workload = function
  | "nginx" -> Figures.Nginx_ab
  | "memcached" -> Figures.Memcached_app
  | "redis" -> Figures.Redis_app
  | w -> invalid_arg (Printf.sprintf "fig3: no macro app for workload %S" w)

let fig3 =
  let specs = Array.of_list (specs_of "fig3") in
  let apps =
    Array.of_list
      (distinct
         (List.map
            (fun (s : Spec.t) -> macro_app_of_workload s.Spec.workload)
            (specs_of "fig3")))
  in
  assert (Array.length specs = 2 * Array.length apps);
  Cells
    {
      shards =
        Array.map
          (fun (s : Spec.t) ->
            let app = macro_app_of_workload s.Spec.workload
            and cloud = s.Spec.platform.Config.cloud in
            fun () -> Figures.fig3 cloud app)
          specs;
      print =
        (fun results ->
          section "Figure 3: macrobenchmarks (relative to patched Docker)";
          Array.iteri
            (fun a app ->
              let t =
                T.create
                  ~title:(Figures.macro_app_name app)
                  [
                    ("configuration", T.Left);
                    ("Amazon tput", T.Right);
                    ("Amazon lat", T.Right);
                    ("Google tput", T.Right);
                    ("Google lat", T.Right);
                  ]
              in
              let amazon = results.((2 * a) + 0) in
              let google = results.((2 * a) + 1) in
              let rel_la = Figures.relative_latency amazon
              and rel_tg = Figures.relative_throughput google
              and rel_lg = Figures.relative_latency google in
              List.iter
                (fun (name, ta) ->
                  let get l =
                    match List.assoc_opt name l with Some v -> v | None -> nan
                  in
                  T.add_row t
                    [
                      name;
                      T.fmt_ratio ta;
                      T.fmt_ratio (get rel_la);
                      T.fmt_ratio (get rel_tg);
                      T.fmt_ratio (get rel_lg);
                    ])
                (Figures.relative_throughput amazon);
              print_table t;
              print_newline ())
            apps);
    }

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)

let fig4 () =
  section "Figure 4: relative system call throughput (higher is better)";
  let cols =
    [
      Figures.fig4 Config.Amazon_ec2 ~concurrent:false;
      Figures.fig4 Config.Amazon_ec2 ~concurrent:true;
      Figures.fig4 Config.Google_gce ~concurrent:false;
      Figures.fig4 Config.Google_gce ~concurrent:true;
    ]
  in
  let t =
    T.create
      [
        ("configuration", T.Left);
        ("Amazon single", T.Right);
        ("Amazon concurrent", T.Right);
        ("Google single", T.Right);
        ("Google concurrent", T.Right);
      ]
  in
  List.iter
    (fun (name, first) ->
      let rest =
        List.map
          (fun col -> match List.assoc_opt name col with Some v -> v | None -> nan)
          (List.tl cols)
      in
      T.add_row t (name :: List.map T.fmt_ratio (first :: rest)))
    (List.hd cols);
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let fig5 () =
  section "Figure 5: microbenchmarks (relative to patched Docker)";
  let panels =
    [
      ("(a) Amazon EC2 Single", Config.Amazon_ec2, false);
      ("(b) Amazon EC2 Concurrent", Config.Amazon_ec2, true);
      ("(c) Google GCE Single", Config.Google_gce, false);
      ("(d) Google GCE Concurrent", Config.Google_gce, true);
    ]
  in
  List.iter
    (fun (title, cloud, concurrent) ->
      let tests = Xc_apps.Unixbench.all_micro @ [ Xc_apps.Unixbench.Iperf ] in
      let t =
        T.create ~title
          (("configuration", T.Left)
          :: List.map (fun test -> (Xc_apps.Unixbench.test_name test, T.Right)) tests)
      in
      let columns = List.map (fun test -> Figures.fig5 cloud ~concurrent test) tests in
      let names = List.map fst (List.hd columns) in
      List.iter
        (fun name ->
          let cells =
            List.map
              (fun col ->
                match List.assoc_opt name col with
                | Some v -> T.fmt_ratio v
                | None -> "-")
              columns
          in
          T.add_row t (name :: cells))
        names;
      print_table t;
      print_newline ())
    panels

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let fig6 () =
  section "Figure 6: Unikernel (U), Graphene (G) and X-Container (X)";
  let r = Figures.fig6 () in
  let t = T.create ~title:"(a) NGINX, 1 worker" [ ("contender", T.Left); ("req/s", T.Right) ] in
  List.iter (fun (n, v) -> T.add_row t [ n; T.fmt_si v ]) r.nginx_1worker;
  print_table t;
  print_newline ();
  let t = T.create ~title:"(b) NGINX, 4 workers" [ ("contender", T.Left); ("req/s", T.Right) ] in
  List.iter (fun (n, v) -> T.add_row t [ n; T.fmt_si v ]) r.nginx_4workers;
  print_table t;
  print_newline ();
  let t =
    T.create ~title:"(c) 2 x PHP + MySQL (total of both PHP servers)"
      [ ("contender", T.Left); ("topology", T.Left); ("req/s", T.Right) ]
  in
  List.iter (fun (c, topo, v) -> T.add_row t [ c; topo; T.fmt_si v ]) r.php_mysql;
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)

let fig8 () =
  section "Figure 8: throughput scalability with container count";
  let results = Figures.fig8 () in
  let counts = Xc_apps.Scalability.default_counts in
  let t =
    T.create
      (("containers", T.Right)
      :: List.map (fun (r, _) -> (Config.runtime_name r, T.Right)) results)
  in
  List.iter
    (fun n ->
      let cells =
        List.map
          (fun (_, points) ->
            match
              List.find_opt
                (fun (p : Xc_apps.Scalability.point) -> p.containers = n)
                points
            with
            | Some p when p.booted -> T.fmt_si p.throughput_rps
            | Some _ -> "(no boot)"
            | None -> "-")
          results
      in
      T.add_row t (string_of_int n :: cells))
    counts;
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)

let fig9 () =
  section "Figure 9: kernel-level load balancing";
  let t =
    T.create
      [
        ("setup", T.Left);
        ("req/s", T.Right);
        ("LB cost/req", T.Right);
        ("bottleneck", T.Left);
      ]
  in
  List.iter
    (fun (r : Xc_apps.Lb_experiment.result) ->
      T.add_row t
        [
          Xc_apps.Lb_experiment.setup_name r.setup;
          T.fmt_si r.throughput_rps;
          Printf.sprintf "%.1fus" (r.lb_service_ns /. 1e3);
          (match r.bottleneck with `Balancer -> "balancer" | `Backends -> "backends");
        ])
    (Figures.fig9 ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Boot times (Section 4.5)                                            *)

let boot () =
  section "Section 4.5: instantiation time";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("toolstack", T.Right);
        ("kernel", T.Right);
        ("bootstrap", T.Right);
        ("total", T.Right);
      ]
  in
  List.iter
    (fun (r : Figures.boot_row) ->
      let b = r.breakdown in
      let msf v = Printf.sprintf "%.0fms" (v /. 1e6) in
      T.add_row t
        [
          r.label;
          msf b.Xcontainers.Boot.toolstack_ns;
          msf b.kernel_boot_ns;
          msf b.bootloader_ns;
          msf b.total_ns;
        ])
    (Figures.boot_times ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: ablation of the X-Container design choices               *)

let ablation () =
  section "Ablation: what each X-Container mechanism buys (beyond-paper)";
  let apps =
    [
      ("NGINX (wrk)", Xc_apps.Nginx.static_request_wrk);
      ("memcached (memtier)", Xc_apps.Memcached.mixed_request);
      ("Redis", Xc_apps.Redis.request);
      ("NGINX+PHP-FPM", Xc_apps.Php_app.fpm_request);
      (* A context-switch-dominated microbenchmark makes the global-bit
         row visible: the kernel-TLB refill is per switch. *)
      ( "ctx-switch ubench",
        Xc_apps.Recipe.make ~name:"ctx-ubench" ~user_ns:100.
          ~ops:
            [
              Xc_os.Kernel.Pipe_write 4;
              Xc_os.Kernel.Pipe_read 4;
              Xc_os.Kernel.Pipe_write 4;
              Xc_os.Kernel.Pipe_read 4;
            ]
          ~request_bytes:0 ~response_bytes:0 ~process_hops:4 ~irqs:0 () );
    ]
  in
  let platform =
    Xc_platforms.Platform.create (Config.make Config.X_container)
  in
  let t =
    T.create
      (("mechanism removed", T.Left)
      :: List.map (fun (name, _) -> (name, T.Right)) apps)
  in
  List.iter
    (fun knob ->
      let cells =
        List.map
          (fun (_, recipe) ->
            let shape =
              Xc_platforms.Ablation.shape
                ~syscalls:(Xc_apps.Recipe.syscall_count recipe)
                ~irqs:recipe.Xc_apps.Recipe.irqs
                ~hops:recipe.Xc_apps.Recipe.process_hops
                ~coverage:recipe.Xc_apps.Recipe.abom_coverage
            in
            let base = Xc_apps.Recipe.service_ns platform recipe in
            T.fmt_ratio
              (Xc_platforms.Ablation.relative_throughput knob shape
                 ~base_service_ns:base))
          apps
      in
      T.add_row t (Xc_platforms.Ablation.knob_name knob :: cells))
    Xc_platforms.Ablation.all;
  print_table t;
  print_newline ();
  print_endline
    "(throughput relative to the full X-Container; ABOM is the big lever on";
  print_endline
    " syscall-dense apps, direct event delivery on interrupt-dense ones;";
  print_endline
    " SMP-disabled is the Section 3.2 customization, a gain not a loss)"

(* ------------------------------------------------------------------ *)
(* Extension: event-driven scheduler simulation (Figure 8 mechanism)   *)

let fig8sim () =
  section
    "Figure 8 cross-validation: event-driven flat vs hierarchical scheduling";
  let t =
    T.create
      [
        ("containers", T.Right);
        ("flat rps", T.Right);
        ("hier rps", T.Right);
        ("flat cont-switches", T.Right);
        ("hier cont-switches", T.Right);
        ("flat switch ovh", T.Right);
        ("hier switch ovh", T.Right);
      ]
  in
  List.iter
    (fun n ->
      let flat =
        Xc_platforms.Cluster_sim.run
          (Xc_platforms.Cluster_sim.default_config Xc_platforms.Cluster_sim.Flat
             ~containers:n)
      in
      let hier =
        Xc_platforms.Cluster_sim.run
          (Xc_platforms.Cluster_sim.default_config
             Xc_platforms.Cluster_sim.Hierarchical ~containers:n)
      in
      T.add_row t
        [
          string_of_int n;
          T.fmt_si flat.throughput_rps;
          T.fmt_si hier.throughput_rps;
          string_of_int flat.container_switches;
          string_of_int hier.container_switches;
          Printf.sprintf "%.0fms" (flat.switch_overhead_ns /. 1e6);
          Printf.sprintf "%.0fms" (hier.switch_overhead_ns /. 1e6);
        ])
    [ 16; 64; 150; 400 ];
  print_table t;
  print_newline ();
  print_endline
    "(the two-level scheduler batches each container's processes, doing ~3x";
  print_endline
    " fewer cross-container switches; with 4N processes the flat scheduler's";
  print_endline
    " per-switch bookkeeping grows until the hierarchy wins, as in Figure 8)"

(* ------------------------------------------------------------------ *)
(* Extension: security/TCB comparison (Sections 2.2, 3.4)              *)

let security () =
  section "Isolation analysis: TCB and attack surface (Sections 2.2/3.4)";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("boundary", T.Left);
        ("TCB kLoC", T.Right);
        ("surface", T.Right);
        ("rel. exposure", T.Right);
        ("guest KPTI needed", T.Left);
      ]
  in
  List.iter
    (fun (p : Xcontainers.Security.profile) ->
      T.add_row t
        [
          Config.runtime_name p.runtime;
          Xcontainers.Security.boundary_name p.boundary;
          string_of_int p.tcb_kloc;
          string_of_int p.attack_surface;
          Printf.sprintf "%.4f" (Xcontainers.Security.vulnerability_exposure p);
          (if p.needs_guest_meltdown_patch then "yes" else "no");
        ])
    Xcontainers.Security.all;
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: live migration (Section 3.3)                             *)

let migration () =
  section "Live migration of a 128MB X-Container (Section 3.3 extension)";
  let t =
    T.create
      [
        ("dirty rate (pages/s)", T.Right);
        ("rounds", T.Right);
        ("pages sent", T.Right);
        ("total time", T.Right);
        ("downtime", T.Right);
        ("converged", T.Left);
      ]
  in
  List.iter
    (fun dirty_rate ->
      let params =
        {
          (Xc_hypervisor.Migration.default_params ~memory_mb:128) with
          dirty_pages_per_s = dirty_rate;
        }
      in
      let r = Xc_hypervisor.Migration.migrate params in
      T.add_row t
        [
          Printf.sprintf "%.0f" dirty_rate;
          string_of_int (List.length r.rounds);
          string_of_int r.total_pages_sent;
          Printf.sprintf "%.0fms" (r.total_ns /. 1e6);
          Printf.sprintf "%.1fms" (r.downtime_ns /. 1e6);
          (if r.converged then "yes" else "no (forced stop)");
        ])
    [ 0.; 1_000.; 5_000.; 20_000.; 60_000.; 200_000. ];
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: clone-based spawning (Section 4.5)                       *)

let clone () =
  section "Spawning: cold boot vs SnowFlock-style cloning (Section 4.5)";
  let snapshot =
    Xcontainers.Cloning.snapshot_of_parent ~memory_mb:128 ~resident_pages:2048
  in
  let c = Xcontainers.Cloning.clone snapshot in
  let t = T.create [ ("path", T.Left); ("time", T.Right) ] in
  let msf v = Printf.sprintf "%.1fms" (v /. 1e6) in
  T.add_row t [ "cold boot, xl toolstack"; msf (Xcontainers.Boot.xcontainer ()).total_ns ];
  T.add_row t
    [
      "cold boot, LightVM toolstack";
      msf (Xcontainers.Boot.xcontainer ~toolstack:Xcontainers.Boot.Lightvm ()).total_ns;
    ];
  T.add_row t [ "clone: toolstack"; msf c.toolstack_ns ];
  T.add_row t [ "clone: CoW setup"; msf c.page_sharing_setup_ns ];
  T.add_row t [ "clone: eager working set"; msf c.eager_copy_ns ];
  T.add_row t [ "clone: total"; msf c.total_ns ];
  print_table t;
  printf "\nspeedup vs cold boot: %.0fx; vs LightVM boot: %.1fx\n"
    (Xcontainers.Cloning.speedup_vs_cold_boot snapshot)
    (Xcontainers.Cloning.speedup_vs_lightvm_boot snapshot)

(* ------------------------------------------------------------------ *)
(* Extension: the wider application sweep                              *)

(* One cell per (application × platform config): 44 independent
   closed-loop runs.  The normalisation base (patched Docker) is the
   row's first cell, so the printer needs the whole row — it renders in
   the merge phase. *)
(* The 11-app × 4-runtime grid comes from the registry's macro-extra
   suite; every cell is a plain generic closed-loop spec, so the cell
   body IS the generic driver — the spec path and the bench path
   cannot diverge. *)
let macro_extra =
  let specs = Array.of_list (specs_of "macro-extra") in
  let titles =
    distinct
      (List.map
         (fun (s : Spec.t) ->
           (Xc_suite.Workload.find_exn s.Spec.workload).Xc_suite.Workload.title)
         (specs_of "macro-extra"))
  in
  let configs =
    distinct (List.map (fun (s : Spec.t) -> s.Spec.platform) (specs_of "macro-extra"))
  in
  let titles_a = Array.of_list titles in
  let nc = List.length configs in
  assert (Array.length specs = Array.length titles_a * nc);
  Cells
    {
      shards =
        Array.map
          (fun (s : Spec.t) ->
            fun () ->
              (Sdriver.closed_result s).Xc_platforms.Closed_loop.throughput_rps)
          specs;
      print =
        (fun tputs ->
          section
            "Extended macro sweep: relative throughput across eleven \
             applications";
          let t =
            T.create
              (("application", T.Left)
              :: List.map (fun c -> (Config.name c, T.Right)) configs)
          in
          Array.iteri
            (fun a name ->
              let base = tputs.(a * nc) in
              T.add_row t
                (name
                :: List.mapi
                     (fun c _ -> T.fmt_ratio (tputs.((a * nc) + c) /. base))
                     configs))
            titles_a;
          print_table t;
          print_newline ();
          print_endline
            "(normalised to patched Docker; the syscall-dense caches gain the \
             most,";
          print_endline
            " the user-space-heavy databases the least - the Table 1/Figure 3 \
             story";
          print_endline
            " extended over the rest of the paper's application list)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: serverless cold starts                                   *)

let coldstart () =
  section "Serverless cold starts: invocation latency by spawn path (extension)";
  List.iter
    (fun rate ->
      printf "arrival rate: %.2f invocations/s (50ms function, 30s keep-alive)\n"
        rate;
      let t =
        T.create
          [
            ("spawn path", T.Left);
            ("cold starts", T.Right);
            ("p50", T.Right);
            ("p99", T.Right);
          ]
      in
      List.iter
        (fun path ->
          let r = Xc_apps.Coldstart.run path (Xc_apps.Coldstart.default_config ~rate_rps:rate) in
          T.add_row t
            [
              Xc_apps.Coldstart.spawn_path_name path;
              Printf.sprintf "%d/%d (%.0f%%)" r.cold_starts r.invocations
                (100. *. r.cold_fraction);
              Printf.sprintf "%.0fms" (r.p50_latency_ns /. 1e6);
              Printf.sprintf "%.0fms" (r.p99_latency_ns /. 1e6);
            ])
        Xc_apps.Coldstart.all_paths;
      print_table t;
      print_newline ())
    [ 0.02; 0.05; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Extension: open-loop latency curves                                 *)

(* One cell per (load fraction × runtime): 10 independent open-loop
   runs.  Each cell rebuilds its (analytic, cheap) server and the
   Docker capacity it normalises against, so cells share nothing and
   the pool can run them in any order.  The (fractions × runtimes)
   grid comes from the registry's latency suite — note the [rate]
   fields are fractions of Docker's capacity (the figure's x-axis),
   not the generic driver's self-relative load. *)
let latency =
  let specs = Array.of_list (specs_of "latency") in
  let fractions =
    Array.of_list
      (distinct
         (List.map (fun (s : Spec.t) -> s.Spec.load.Spec.rate) (specs_of "latency")))
  in
  assert (Array.length specs = 2 * Array.length fractions);
  let server runtime =
    let platform = Xc_platforms.Platform.create (Config.make runtime) in
    let recipe = Xc_apps.Nginx.static_request_wrk in
    let service = Xc_apps.Recipe.service_ns platform recipe in
    ( service,
      {
        Xc_platforms.Closed_loop.units = 4;
        service_ns = (fun _ -> service);
        overhead_ns = 0.;
      } )
  in
  Cells
    {
      shards =
        Array.map
          (fun (s : Spec.t) ->
            let fraction = s.Spec.load.Spec.rate
            and runtime = s.Spec.platform.Config.runtime in
            fun () ->
              let docker_service, _ = server Config.Docker in
              let _, srv = server runtime in
              let capacity = 4e9 /. docker_service in
              Xc_platforms.Open_loop.run
                (Xc_platforms.Open_loop.config
                   ~rate_rps:(fraction *. capacity) ())
                srv)
          specs;
      print =
        (fun results ->
          section
            "Open-loop latency vs load: NGINX, Docker vs X-Container \
             (extension)";
          let t =
            T.create
              [
                ("load", T.Right);
                ("Docker p50", T.Right);
                ("Docker p99", T.Right);
                ("XC p50", T.Right);
                ("XC p99", T.Right);
              ]
          in
          Array.iteri
            (fun i fraction ->
              let d = results.(2 * i) and x = results.((2 * i) + 1) in
              let us v = Printf.sprintf "%.0fus" (v /. 1e3) in
              T.add_row t
                [
                  Printf.sprintf "%.0f%%" (fraction *. 100.);
                  us d.Xc_platforms.Open_loop.p50_ns;
                  us d.Xc_platforms.Open_loop.p99_ns;
                  us x.Xc_platforms.Open_loop.p50_ns;
                  us x.Xc_platforms.Open_loop.p99_ns;
                ])
            fractions;
          print_table t;
          print_endline
            "(load normalised to Docker's capacity: at 95% of Docker's limit \
             the";
          print_endline
            " X-Container still has headroom, so its tail stays flat)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: the kernel-compilation counterpoint                      *)

let build_bench () =
  section "Kernel compilation (tiny config): the process-churn counterpoint";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("build time", T.Right);
        ("relative to Docker", T.Right);
      ]
  in
  List.iter
    (fun runtime ->
      let p = Xc_platforms.Platform.create (Config.make runtime) in
      T.add_row t
        [
          Config.runtime_name runtime;
          Printf.sprintf "%.1fs" (Xc_apps.Kernel_build.build_ns p /. 1e9);
          T.fmt_ratio (Xc_apps.Kernel_build.relative_to_docker p);
        ])
    [
      Config.Docker;
      Config.Clear_container;
      Config.X_container;
      Config.Xen_container;
      Config.Gvisor;
    ];
  print_table t;
  print_newline ();
  print_endline
    "(fork/exec-heavy work is where X-Containers give a little back - the";
  print_endline
    " PV page-table tax of Section 5.4 - while ABOM still converts 95.3%";
  print_endline " of the build's syscalls, keeping the gap small)"

(* ------------------------------------------------------------------ *)
(* Extension: memory density with ballooning/tmem                      *)

let density () =
  section "Memory density: X-Containers per 96GB host (Section 4.5 extension)";
  let t =
    T.create
      [
        ("policy", T.Left);
        ("containers", T.Right);
        ("tmem pool", T.Right);
        ("shared-cache hits", T.Right);
        ("vs static", T.Right);
      ]
  in
  let static = Xc_apps.Density.run Xc_apps.Density.Static in
  List.iter
    (fun policy ->
      let r = Xc_apps.Density.run policy in
      T.add_row t
        [
          Xc_apps.Density.policy_name policy;
          string_of_int r.containers;
          (if r.tmem_pool_mb > 0 then Printf.sprintf "%dMB" r.tmem_pool_mb else "-");
          (if r.est_page_cache_hit_gain > 0. then
             Printf.sprintf "%.0f%%" (100. *. r.est_page_cache_hit_gain)
           else "-");
          T.fmt_ratio (Xc_apps.Density.density_gain static r);
        ])
    Xc_apps.Density.all_policies;
  print_table t;
  print_newline ();
  print_endline
    "(20% of containers active; idle ones ballooned to the 64MB floor the";
  print_endline
    " paper measured X-Containers to run at - the Section 4.5 limitation,";
  print_endline " lifted with the mechanisms the paper cites)"

(* ------------------------------------------------------------------ *)
(* CSV artifact export (for plotting)                                  *)

let csv () =
  let dir = "results" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name (t : T.t) =
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (T.to_csv t);
    close_out oc;
    printf "wrote %s\n" path
  in
  (* Table 1 *)
  let t = T.create [ ("application", T.Left); ("measured", T.Right); ("paper", T.Right) ] in
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      T.add_row t
        [
          m.profile.name;
          Printf.sprintf "%.4f" m.auto_reduction;
          Printf.sprintf "%.4f" m.profile.paper_reduction;
        ])
    (Figures.table1 ());
  write "table1" t;
  (* Figure 3 (throughput, both clouds, all apps) *)
  let t =
    T.create
      [ ("app", T.Left); ("cloud", T.Left); ("configuration", T.Left);
        ("relative_tput", T.Right); ("relative_latency", T.Right) ]
  in
  List.iter
    (fun app ->
      List.iter
        (fun (cloud, cloud_name) ->
          let results = Figures.fig3 cloud app in
          let tput = Figures.relative_throughput results in
          let lat = Figures.relative_latency results in
          List.iter
            (fun (name, v) ->
              T.add_row t
                [
                  Figures.macro_app_name app;
                  cloud_name;
                  name;
                  Printf.sprintf "%.4f" v;
                  Printf.sprintf "%.4f" (List.assoc name lat);
                ])
            tput)
        [ (Config.Amazon_ec2, "amazon"); (Config.Google_gce, "google") ])
    Figures.macro_apps;
  write "fig3" t;
  (* Figure 4 *)
  let t =
    T.create
      [ ("configuration", T.Left); ("amazon_single", T.Right);
        ("amazon_concurrent", T.Right) ]
  in
  let single = Figures.fig4 Config.Amazon_ec2 ~concurrent:false in
  let conc = Figures.fig4 Config.Amazon_ec2 ~concurrent:true in
  List.iter
    (fun (name, v) ->
      T.add_row t
        [ name; Printf.sprintf "%.4f" v;
          Printf.sprintf "%.4f" (List.assoc name conc) ])
    single;
  write "fig4" t;
  (* Figure 5 (Amazon single panel) *)
  let tests = Xc_apps.Unixbench.all_micro @ [ Xc_apps.Unixbench.Iperf ] in
  let t =
    T.create
      (("configuration", T.Left)
      :: List.map (fun test -> (Xc_apps.Unixbench.test_name test, T.Right)) tests)
  in
  let cols = List.map (fun test -> Figures.fig5 Config.Amazon_ec2 ~concurrent:false test) tests in
  List.iter
    (fun (name, _) ->
      T.add_row t
        (name
        :: List.map
             (fun col -> Printf.sprintf "%.4f" (List.assoc name col))
             cols))
    (List.hd cols);
  write "fig5_amazon_single" t;
  (* Figure 8 *)
  let t =
    T.create
      (("containers", T.Right)
      :: List.map (fun r -> (Config.runtime_name r, T.Right)) Figures.fig8_runtimes)
  in
  let results = Figures.fig8 () in
  List.iter
    (fun n ->
      T.add_row t
        (string_of_int n
        :: List.map
             (fun (_, points) ->
               match
                 List.find_opt
                   (fun (p : Xc_apps.Scalability.point) -> p.containers = n)
                   points
               with
               | Some p when p.booted -> Printf.sprintf "%.0f" p.throughput_rps
               | _ -> "")
             results))
    Xc_apps.Scalability.default_counts;
  write "fig8" t;
  (* Figure 9 *)
  let t = T.create [ ("setup", T.Left); ("throughput_rps", T.Right) ] in
  List.iter
    (fun (r : Xc_apps.Lb_experiment.result) ->
      T.add_row t
        [
          Xc_apps.Lb_experiment.setup_name r.setup;
          Printf.sprintf "%.0f" r.throughput_rps;
        ])
    (Figures.fig9 ());
  write "fig9" t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator itself                   *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let heap_bench =
    Test.make ~name:"heap push/pop x1000"
      (Staged.stage (fun () ->
           let h = Xc_sim.Heap.create () in
           for i = 0 to 999 do
             Xc_sim.Heap.push h (float_of_int ((i * 7919) mod 1000)) i
           done;
           while not (Xc_sim.Heap.is_empty h) do
             ignore (Xc_sim.Heap.pop h)
           done))
  in
  let prng_bench =
    Test.make ~name:"prng 10k samples"
      (Staged.stage (fun () ->
           let rng = Xc_sim.Prng.create 1 in
           for _ = 1 to 10_000 do
             ignore (Xc_sim.Prng.float rng 1.0)
           done))
  in
  let abom_bench =
    Test.make ~name:"abom patch one binary"
      (Staged.stage (fun () ->
           let prog =
             Xc_isa.Builder.build
               [
                 (Xc_isa.Builder.Glibc_small, 0);
                 (Xc_isa.Builder.Glibc_wide, 1);
                 (Xc_isa.Builder.Go_stack, 39);
               ]
           in
           let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
           List.iter
             (fun (s : Xc_isa.Builder.site) ->
               ignore
                 (Xc_abom.Patcher.patch_site patcher prog.image
                    ~syscall_off:s.syscall_off))
             prog.sites))
  in
  let machine_bench =
    Test.make ~name:"machine run 3-syscall program"
      (Staged.stage (fun () ->
           let prog =
             Xc_isa.Builder.build
               [
                 (Xc_isa.Builder.Glibc_small, 0);
                 (Xc_isa.Builder.Glibc_small, 1);
                 (Xc_isa.Builder.Glibc_small, 3);
               ]
           in
           let m = Xc_isa.Machine.create prog.image ~entry:prog.entry in
           ignore (Xc_isa.Machine.run m)))
  in
  let closed_loop_bench =
    Test.make ~name:"closed-loop 10ms simulated"
      (Staged.stage (fun () ->
           let server =
             {
               Xc_platforms.Closed_loop.units = 4;
               service_ns = (fun _ -> 20_000.);
               overhead_ns = 0.;
             }
           in
           ignore
             (Xc_platforms.Closed_loop.run
                {
                  Xc_platforms.Closed_loop.default_config with
                  duration_ns = 1e7;
                  warmup_ns = 1e6;
                }
                server)))
  in
  let tests =
    Test.make_grouped ~name:"simulator"
      [ heap_bench; prng_bench; abom_bench; machine_bench; closed_loop_bench ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  section "Bechamel: simulator hot paths";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> printf "%-40s %12.1f ns/run\n" name est
      | _ -> printf "%-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Extension: request hedging and pluggable LB policies                *)

(* One cell per point across three grids: the PS cloning simulator vs
   the analytic oracle (the differential), the policy comparison at
   fixed load, and the Fig 9 cluster race (baseline vs hedged routing).
   The cluster configs are priced here at module init — before the
   harness can enable tracing — so traced runs capture only the
   simulation's own spans and tail attribution stays exact. *)
type hedging_cell =
  | H_oracle of { u : float; d : int; r : Xc_lb.Hedge.result; oracle : float }
  | H_policy of { kind : Xc_lb.Policy.kind; d : int; r : Xc_lb.Hedge.result }
  | H_cluster of { label : string; r : Xc_platforms.Cluster_sim.result }

let hedging =
  let module H = Xc_lb.Hedge in
  let module P = Xc_lb.Policy in
  (* The three grids — oracle differential points, the policy race,
     the Fig 9 cluster cells — come from the registry's hedging suite,
     partitioned by kind in spec order. *)
  let specs = specs_of "hedging" in
  let of_kind k = List.filter (fun (s : Spec.t) -> s.Spec.kind = k) specs in
  let req what = function
    | Ok v -> v
    | Error m -> invalid_arg (Printf.sprintf "hedging %s: %s" what m)
  in
  let oracle_points =
    Array.of_list
      (List.map
         (fun (s : Spec.t) ->
           ( req s.Spec.name (Spec.param_float s "utilization" ~default:0.5),
             req s.Spec.name (Spec.param_int s "clones" ~default:1) ))
         (of_kind "hedging-oracle"))
  in
  let policy_points =
    Array.of_list
      (List.map
         (fun (s : Spec.t) ->
           let kind =
             match Spec.param s "policy" with
             | Some p -> req s.Spec.name (P.kind_of_string p)
             | None -> invalid_arg "hedging: policy spec without param.policy"
           in
           (kind, req s.Spec.name (Spec.param_int s "clones" ~default:1)))
         (of_kind "hedging-policy"))
  in
  let cluster_cells =
    (* Configs are priced here at module init — before the harness can
       enable tracing — so traced runs capture only the simulation's
       own spans. *)
    Array.of_list
      (List.map
         (fun (s : Spec.t) ->
           let platform = Xc_platforms.Platform.create s.Spec.platform in
           let base =
             Xc_platforms.Cluster_sim.config_of_platform
               ~containers:s.Spec.load.Spec.containers
               ~connections:s.Spec.load.Spec.connections platform
           in
           match Spec.param s "policy" with
           | None -> ("home-pinned (baseline)", base)
           | Some p ->
               let kind = req s.Spec.name (P.kind_of_string p) in
               let clones = req s.Spec.name (Spec.param_int s "clones" ~default:1) in
               ( Printf.sprintf "%s d=%d" p clones,
                 {
                   base with
                   Xc_platforms.Cluster_sim.lb = Some { Xc_lb.Policy.kind; clones };
                 } ))
         (of_kind "hedging-cluster"))
  in
  let n_oracle = Array.length oracle_points in
  let n_policy = Array.length policy_points in
  Cells
    {
      shards =
        Array.init
          (n_oracle + n_policy + Array.length cluster_cells)
          (fun i () ->
            if i < n_oracle then begin
              let u, d = oracle_points.(i) in
              let cfg =
                H.config_for_utilization ~clones:d ~duration_ns:4e9
                  ~utilization:u ()
              in
              let oracle =
                Xc_lb.Oracle.cloned_mean_ns ~backends:cfg.H.backends ~clones:d
                  ~arrival_rate_per_ns:cfg.H.arrival_rate_per_ns
                  ~service_mean_ns:cfg.H.service_mean_ns
              in
              H_oracle { u; d; r = H.run cfg; oracle }
            end
            else if i < n_oracle + n_policy then begin
              let kind, d = policy_points.(i - n_oracle) in
              let cfg =
                H.config_for_utilization ~clones:d ~dispatch:(H.Policy kind)
                  ~duration_ns:1e9 ~utilization:0.65 ()
              in
              H_policy { kind; d; r = H.run cfg }
            end
            else begin
              let label, cfg = cluster_cells.(i - n_oracle - n_policy) in
              H_cluster { label; r = Xc_platforms.Cluster_sim.run cfg }
            end);
      print =
        (fun cells ->
          section "Request hedging: cloning, LB policies and the PS oracle (extension)";
          let t =
            T.create
              ~title:
                "Differential: cloned M/PS simulation vs closed form (6 \
                 backends, subcluster dispatch)"
              [
                ("util", T.Right);
                ("clones", T.Right);
                ("sim mean", T.Right);
                ("oracle", T.Right);
                ("delta", T.Right);
                ("p99", T.Right);
              ]
          in
          Array.iter
            (function
              | H_oracle { u; d; r; oracle } ->
                  T.add_row t
                    [
                      Printf.sprintf "%.2f" u;
                      string_of_int d;
                      Printf.sprintf "%.1fus" (r.H.mean_ns /. 1e3);
                      Printf.sprintf "%.1fus" (oracle /. 1e3);
                      Printf.sprintf "%+.1f%%"
                        ((r.H.mean_ns -. oracle) /. oracle *. 100.);
                      Printf.sprintf "%.1fus" (r.H.p99_ns /. 1e3);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          let t =
            T.create
              ~title:
                "Policy race at 65% per-backend load (hedge share = clone \
                 work cancelled / busy time)"
              [
                ("policy", T.Left);
                ("clones", T.Right);
                ("mean", T.Right);
                ("p99", T.Right);
                ("hedge share", T.Right);
              ]
          in
          Array.iter
            (function
              | H_policy { kind; d; r } ->
                  T.add_row t
                    [
                      P.kind_to_string kind;
                      string_of_int d;
                      Printf.sprintf "%.1fus" (r.H.mean_ns /. 1e3);
                      Printf.sprintf "%.1fus" (r.H.p99_ns /. 1e3);
                      Printf.sprintf "%.1f%%"
                        (if r.H.busy_ns > 0. then
                           r.H.cancelled_work_ns /. r.H.busy_ns *. 100.
                         else 0.);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          let clusters =
            Array.to_list cells
            |> List.filter_map (function
                 | H_cluster { label; r } -> Some (label, r)
                 | _ -> None)
          in
          let base_p99 =
            match clusters with
            | (_, r) :: _ -> r.Xc_platforms.Cluster_sim.p99_latency_ns
            | [] -> nan
          in
          let t =
            T.create
              ~title:
                "Fig 9 cluster tail: X-Container, 4 containers x 5 \
                 connections (the saturated point)"
              [
                ("routing", T.Left);
                ("p99", T.Right);
                ("vs baseline", T.Right);
                ("req/s", T.Right);
              ]
          in
          List.iteri
            (fun i (label, (r : Xc_platforms.Cluster_sim.result)) ->
              T.add_row t
                [
                  label;
                  Printf.sprintf "%.0fus" (r.p99_latency_ns /. 1e3);
                  (if i = 0 then "-"
                   else
                     Printf.sprintf "%+.1f%%"
                       ((r.p99_latency_ns -. base_p99) /. base_p99 *. 100.));
                  Printf.sprintf "%.0f" r.throughput_rps;
                ])
            clusters;
          print_table t;
          print_newline ();
          print_endline
            "(synchronized clones share their sub-cluster's PS capacity, so \
             cloning only";
          print_endline
            " pays off when spare capacity exists: at the saturated Fig 9 \
             point the d=2";
          print_endline
            " hedge inflates the tail while least-loaded routing alone \
             trims it - the";
          print_endline
            " oracle's effective utilization d.lambda.E[S]/n says exactly \
             when to stop)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: million-container cluster scale via tiered fidelity      *)

(* The fluid tier solves each node's closed loop analytically, so a
   10^6-container fleet costs a few million MVA sweep steps instead of
   billions of scheduler events; the differential cells re-run
   overlapping scales through both tiers and print the disagreement
   (the cluster-fluid tests gate it outside the scheduling knee).
   Configs are priced at module init — before the harness can enable
   tracing — so traced runs capture only the simulation's own spans
   (the hedging precedent).  The fleet shard count is fixed, so event
   counts are --jobs-invariant. *)
type cluster_scale_cell =
  | C_fleet of {
      nodes : int;
      containers : int;
      rps : float;
      mean_sum_ns : float;
      busy_sum : float;
    }
  | C_diff of {
      label : string;
      exact : Xc_platforms.Cluster_sim.result;
      fluid : Xc_platforms.Cluster_sim.result;
    }
  | C_mixed of { label : string; r : Xc_platforms.Cluster_sim.result }

(* The fleet shape, differential points and mixed cell come from a
   registry suite (cluster-scale, cluster-smoke) — one cluster-fleet
   spec (nodes, shard count and the heterogeneous size cycle as
   params), one cluster-diff spec per differential point, one
   cluster-mixed spec. *)
let make_cluster_scale (suite : Suite.t) =
  let module CS = Xc_platforms.Cluster_sim in
  let sname = suite.Suite.name in
  let req what = function
    | Ok v -> v
    | Error m -> invalid_arg (Printf.sprintf "%s %s: %s" sname what m)
  in
  let of_kind k =
    List.filter (fun (s : Spec.t) -> s.Spec.kind = k) suite.Suite.specs
  in
  let one k =
    match of_kind k with
    | [ s ] -> s
    | l ->
        invalid_arg
          (Printf.sprintf "%s: expected one %s spec, got %d" sname k
             (List.length l))
  in
  let fleet = one "cluster-fleet" in
  let fleet_nodes = fleet.Spec.load.Spec.nodes in
  let fleet_shards =
    req fleet.Spec.name (Spec.param_int fleet "shards" ~default:1)
  in
  let platform = Xc_platforms.Platform.create fleet.Spec.platform in
  (* Heterogeneous fleet: node sizes cycle param.sizes (mean 1000 in
     the committed suites), so the fleet totals fleet_nodes x mean
     containers. *)
  let sizes =
    match Spec.param fleet "sizes" with
    | None -> invalid_arg (Printf.sprintf "%s: fleet spec without param.sizes" sname)
    | Some v ->
        Array.of_list
          (List.map
             (fun s ->
               match int_of_string_opt s with
               | Some n when n > 0 -> n
               | _ ->
                   invalid_arg
                     (Printf.sprintf "%s: bad fleet size %S in param.sizes" sname s))
             (String.split_on_char ':' v))
  in
  let bases =
    Array.map
      (fun n ->
        CS.config_of_platform ~containers:n
          ~connections:fleet.Spec.load.Spec.connections platform)
      sizes
  in
  let node_config i =
    let b = bases.(i mod Array.length sizes) in
    { b with CS.seed = b.CS.seed + i }
  in
  let diff_cells =
    Array.of_list
      (List.map
         (fun (s : Spec.t) ->
           let mode =
             match Spec.param s "mode" with
             | Some "flat" -> CS.Flat
             | Some "hier" -> CS.Hierarchical
             | m ->
                 invalid_arg
                   (Printf.sprintf "%s %s: param.mode must be flat or hier, got %s"
                      sname s.Spec.name
                      (Option.value m ~default:"<absent>"))
           in
           let n = s.Spec.load.Spec.containers
           and conns = s.Spec.load.Spec.connections in
           let label =
             Printf.sprintf "%s n=%d c=%d"
               (match mode with CS.Flat -> "flat" | CS.Hierarchical -> "hier")
               n conns
           in
           let config =
             {
               (CS.default_config mode ~containers:n) with
               CS.connections_per_container = conns;
             }
           in
           (label, config))
         (of_kind "cluster-diff"))
  in
  let mixed = one "cluster-mixed" in
  let mixed_containers = mixed.Spec.load.Spec.containers in
  let mixed_rate =
    match mixed.Spec.fidelity with
    | Spec.Mixed n -> n
    | _ ->
        invalid_arg
          (Printf.sprintf "%s: cluster-mixed spec must have mixed:N fidelity" sname)
  in
  let mixed_config =
    CS.default_config CS.Hierarchical ~containers:mixed_containers
  in
  let n_diff = Array.length diff_cells in
  Cells
    {
      shards =
        Array.init
          (fleet_shards + n_diff + 1)
          (fun k () ->
            if k < fleet_shards then begin
              let lo = k * fleet_nodes / fleet_shards
              and hi = (k + 1) * fleet_nodes / fleet_shards in
              let rps = ref 0.
              and mean = ref 0.
              and busy = ref 0.
              and conts = ref 0 in
              for i = lo to hi - 1 do
                let c = node_config i in
                let r = CS.run_fluid c in
                rps := !rps +. r.CS.throughput_rps;
                mean := !mean +. r.CS.mean_latency_ns;
                busy := !busy +. r.CS.busy_fraction;
                conts := !conts + c.CS.containers
              done;
              C_fleet
                {
                  nodes = hi - lo;
                  containers = !conts;
                  rps = !rps;
                  mean_sum_ns = !mean;
                  busy_sum = !busy;
                }
            end
            else if k < fleet_shards + n_diff then begin
              let label, config = diff_cells.(k - fleet_shards) in
              C_diff
                { label; exact = CS.run config; fluid = CS.run_fluid config }
            end
            else
              C_mixed
                {
                  label =
                    Printf.sprintf "hier n=%d, 1 in %d sampled" mixed_containers
                      mixed_rate;
                  r =
                    CS.run_fidelity
                      (CS.Mixed { sample_rate = mixed_rate })
                      mixed_config;
                });
      print =
        (fun cells ->
          section
            "Cluster scale: tiered fidelity over a million containers \
             (extension)";
          let nodes = ref 0
          and conts = ref 0
          and rps = ref 0.
          and mean = ref 0.
          and busy = ref 0. in
          Array.iter
            (function
              | C_fleet f ->
                  nodes := !nodes + f.nodes;
                  conts := !conts + f.containers;
                  rps := !rps +. f.rps;
                  mean := !mean +. f.mean_sum_ns;
                  busy := !busy +. f.busy_sum
              | _ -> ())
            cells;
          printf
            "fluid fleet: %d node(s), %d containers — %s req/s, mean \
             latency %.1fms, mean busy %.0f%%\n\n"
            !nodes !conts
            (T.fmt_si !rps)
            (!mean /. float_of_int !nodes /. 1e6)
            (100. *. !busy /. float_of_int !nodes);
          let t =
            T.create
              ~title:
                "Differential: fluid (analytic) vs exact (event-driven) on \
                 overlapping scales"
              [
                ("point", T.Left);
                ("exact mean", T.Right);
                ("fluid mean", T.Right);
                ("delta", T.Right);
                ("exact busy", T.Right);
                ("fluid busy", T.Right);
              ]
          in
          Array.iter
            (function
              | C_diff { label; exact; fluid } ->
                  T.add_row t
                    [
                      label;
                      Printf.sprintf "%.1fms" (exact.CS.mean_latency_ns /. 1e6);
                      Printf.sprintf "%.1fms" (fluid.CS.mean_latency_ns /. 1e6);
                      Printf.sprintf "%+.1f%%"
                        ((fluid.CS.mean_latency_ns -. exact.CS.mean_latency_ns)
                        /. exact.CS.mean_latency_ns *. 100.);
                      Printf.sprintf "%.0f%%" (100. *. exact.CS.busy_fraction);
                      Printf.sprintf "%.0f%%" (100. *. fluid.CS.busy_fraction);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          Array.iter
            (function
              | C_mixed { label; r } ->
                  printf
                    "mixed tier (%s): mean %.1fms (fluid), p99 %.1fms (exact \
                     slice), %s req/s\n"
                    label
                    (r.CS.mean_latency_ns /. 1e6)
                    (r.CS.p99_latency_ns /. 1e6)
                    (T.fmt_si r.CS.throughput_rps)
              | _ -> ())
            cells;
          print_newline ();
          print_endline
            "(the fluid tier prices a node in one O(clients) MVA sweep - a \
             million";
          print_endline
            " containers in well under a second - and tracks the exact \
             tier within a";
          print_endline
            " few percent at light and saturated load; the mixed tier adds \
             a seeded";
          print_endline
            " exact slice so p99/tail attribution survives at fleet scale)");
    }

let cluster_scale = make_cluster_scale (reg_suite "cluster-scale")

(* ------------------------------------------------------------------ *)
(* Causal what-if profiler (extension): per causal-point spec, predict
   the virtual speedup from the traced baseline's attribution and
   validate it against an actually re-priced rerun.  One [whole] body
   on purpose: the baselines flip the process-wide trace flag
   ([Capture.with_capture]), so they must not run concurrently with
   cells that assume the flag is stable — and the whole grid is cheap
   (100 ms windows at 1-5 connections). *)

let make_causal (suite : Suite.t) =
  let module CS = Xc_platforms.Cluster_sim in
  let module Causal = Xc_obs.Causal in
  let sname = suite.Suite.name in
  let ok what = function
    | Ok v -> v
    | Error m -> invalid_arg (Printf.sprintf "%s %s: %s" sname what m)
  in
  (* Configs are priced here, at module init, before --trace can turn
     the ring on; the what-if re-pricing is validated up front so a
     registry typo aborts before anything runs. *)
  let cells =
    List.map
      (fun (s : Spec.t) ->
        let w =
          match s.Spec.whatif with
          | [ w ] -> w
          | l ->
              invalid_arg
                (Printf.sprintf
                   "%s %s: causal-point wants exactly one whatif axis, got %d"
                   sname s.Spec.name (List.length l))
        in
        let config = Sdriver.cluster_config s in
        let tlabel =
          Printf.sprintf "%s/c%d"
            (Spec.runtime_to_string s.Spec.platform.Config.runtime)
            s.Spec.load.Spec.connections
        in
        let rerun_config =
          ok s.Spec.name (Xc_obs.Whatif.apply_cluster w config)
        in
        (s.Spec.name, tlabel, config, w, rerun_config))
      suite.Suite.specs
  in
  (* Each (runtime x connections) baseline runs — and is traced — once,
     shared by every what-if cell against it. *)
  let targets = distinct (List.map (fun (_, t, _, _, _) -> t) cells) in
  let config_of t =
    let _, _, c, _, _ = List.find (fun (_, tl, _, _, _) -> tl = t) cells in
    c
  in
  whole
    (fun () ->
      section
        "Causal what-if profiler: virtual speedups, predicted vs rerun \
         (extension)";
      let baselines =
        Xc_sim.Capture.with_capture ~trace:true ~capacity:(1 lsl 18) (fun () ->
            List.map (fun t -> (t, Causal.measure_baseline (config_of t))) targets)
      in
      List.iter
        (fun (t, b) ->
          print_string (Causal.render_baseline ~label:t b);
          print_newline ())
        baselines;
      let points =
        List.map
          (fun (name, tlabel, _, w, rerun_config) ->
            Causal.point ~label:name (List.assoc tlabel baselines) w
              (CS.run rerun_config))
          cells
      in
      print_string (Causal.render_points points);
      print_newline ();
      print_endline
        "(off the knee — 1 connection per container — the linear";
      print_endline
        " attribution-share prediction lands within a few percent of the";
      print_endline
        " re-priced rerun; the c=5 knee rows diverge on purpose: queueing";
      print_endline
        " amplification is exactly what a linear share cannot see)")

let causal = make_causal (reg_suite "causal")

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", whole table1);
    ("fig3", fig3);
    ("fig4", whole fig4);
    ("fig5", whole fig5);
    ("fig6", whole fig6);
    ("fig8", whole fig8);
    ("fig9", whole fig9);
    ("boot", whole boot);
    ("ablation", whole ablation);
    ("fig8sim", whole fig8sim);
    ("security", whole security);
    ("migration", whole migration);
    ("clone", whole clone);
    ("latency", latency);
    ("coldstart", whole coldstart);
    ("macro-extra", macro_extra);
    ("build-bench", whole build_bench);
    ("density", whole density);
    ("hedging", hedging);
    ("cluster-scale", cluster_scale);
    ("causal", causal);
    ("csv", whole csv);
  ]

(* ------------------------------------------------------------------ *)
(* Smoke: every experiment family at tiny durations, cheap enough for
   tier-1 (`dune runtest` runs it at --jobs 1 and 2 and compares). *)

module CS = Xc_platforms.Cluster_sim
module CL = Xc_platforms.Closed_loop

let smoke_experiments =
  let req what = function
    | Ok v -> v
    | Error m -> invalid_arg (Printf.sprintf "smoke %s: %s" what m)
  in
  let single name =
    match (reg_suite name).Suite.specs with
    | [ s ] -> s
    | l ->
        invalid_arg
          (Printf.sprintf "smoke: expected one %s spec, got %d" name
             (List.length l))
  in
  let table1_smoke =
    let s = single "table1-smoke" in
    let invocations = req s.Spec.name (Spec.param_int s "invocations" ~default:2_000) in
    fun () ->
      section "Smoke: Table 1, 2k invocations";
      List.iter
        (fun (m : Xc_apps.Profiles.measurement) ->
          printf "%-20s %.1f%%\n" m.profile.name (100. *. m.auto_reduction))
        (Figures.table1 ~invocations ())
  in
  (* Two cells (one per runtime): the cheapest sharded experiment, and
     the one the tier-1 determinism rules cmp at --jobs 1 vs 2.  The
     cells are plain generic closed-loop specs. *)
  let macro_smoke =
    let specs = Array.of_list (reg_suite "macro-smoke").Suite.specs in
    Cells
      {
        shards =
          Array.map
            (fun (s : Spec.t) ->
              fun () ->
                let r = Sdriver.closed_result s in
                (Config.name s.Spec.platform, r.CL.throughput_rps))
            specs;
        print =
          (fun rows ->
            section "Smoke: closed-loop macro, 20ms simulated";
            Array.iter
              (fun (name, rps) -> printf "%-24s %s req/s\n" name (T.fmt_si rps))
              rows);
      }
  in
  let latency_smoke =
    let s = single "latency-smoke" in
    fun () ->
      section "Smoke: open-loop latency, 20ms simulated";
      let platform = Xc_platforms.Platform.create s.Spec.platform in
      let service =
        Xc_apps.Recipe.service_ns platform Xc_apps.Nginx.static_request_wrk
      in
      let server =
        { CL.units = 4; service_ns = (fun _ -> service); overhead_ns = 0. }
      in
      let r =
        Xc_platforms.Open_loop.run
          (Xc_platforms.Open_loop.config ~duration_ns:(Spec.duration_ns s)
             ~warmup_ns:(Spec.warmup_ns s)
             ~rate_rps:(1e9 /. service) ())
          server
      in
      printf "p50 %.0fus  p99 %.0fus\n" (r.p50_ns /. 1e3) (r.p99_ns /. 1e3)
  in
  let fig8sim_smoke =
    let s = single "fig8sim-smoke" in
    fun () ->
      section "Smoke: cluster scheduler sweep, 20ms simulated, inner fan-out";
      let tiny mode n =
        {
          (CS.default_config mode ~containers:n) with
          duration_ns = Spec.duration_ns s;
          warmup_ns = Spec.warmup_ns s;
          client_rtt_ns = 1e6;
        }
      in
      let configs =
        List.concat_map (fun n -> [ tiny CS.Flat n; tiny CS.Hierarchical n ]) [ 4; 8 ]
      in
      let results = CS.run_sweep ~jobs:2 configs in
      List.iter2
        (fun (c : CS.config) (r : CS.result) ->
          printf "%-12s n=%d  %s req/s  %d container switches\n"
            (match c.mode with CS.Flat -> "flat" | CS.Hierarchical -> "hierarchical")
            c.containers
            (T.fmt_si r.throughput_rps)
            r.container_switches)
        configs results
  in
  (* A tiny fleet keeps the tier-1 determinism rules cheap while still
     exercising every fidelity tier and the differential printer. *)
  let cluster_smoke = make_cluster_scale (reg_suite "cluster-smoke") in
  List.map
    (fun n -> (n, List.assoc n all_experiments))
    Registry.smoke_cheap
  @ [
      ("table1-smoke", whole table1_smoke);
      ("macro-smoke", macro_smoke);
      ("latency-smoke", whole latency_smoke);
      ("fig8sim-smoke", whole fig8sim_smoke);
      ("cluster-smoke", cluster_smoke);
    ]

(* Startup agreement check: the declarative registry and this driver
   table must name exactly the same experiments — an experiment
   reachable from one but not the other (the silent-skip class the
   smoke-variant lookup used to risk) aborts the run. *)
let () =
  let driver_names =
    List.filter (fun n -> n <> "csv") (List.map fst all_experiments)
  in
  let missing =
    List.filter (fun n -> not (List.mem n driver_names)) Registry.bench_names
  and extra =
    List.filter (fun n -> not (List.mem n Registry.bench_names)) driver_names
  and smoke_drift =
    List.map fst smoke_experiments <> Registry.smoke_names
  in
  if missing <> [] || extra <> [] || smoke_drift then begin
    Printf.eprintf
      "bench: registry/driver drift: missing=[%s] extra=[%s] smoke order %s\n"
      (String.concat " " missing) (String.concat " " extra)
      (if smoke_drift then "DRIFTED" else "ok");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The parallel experiment runner and the machine-readable artifact.   *)

module Capture = Xc_sim.Capture

(* [f ()] and what it printed, from a cleared domain-local buffer. *)
let printing f =
  let buf = out () in
  Buffer.clear buf;
  let v = f () in
  (v, Buffer.contents buf)

(* Every cell is measured on whichever domain the pool hands it to; the
   (deterministic, index-ordered) merge phase assembles the outcome:
   the cells' outputs, then the printer's, with wall/events summed,
   traces concatenated and telemetry merged. *)
let shard_of_experiment (name, Cells { shards; print }) =
  Xc_sim.Parallel.Shard.make
    ~shards:(Array.map (fun f () -> Capture.measure (fun () -> printing f)) shards)
    ~merge:(fun pieces ->
      let run = Capture.merge (Array.to_list pieces) in
      let (), printed =
        printing (fun () -> print (Array.of_list (List.map fst run.value)))
      in
      (name, { run with value = String.concat "" (List.map snd run.value) ^ printed }))

(* Run metadata: which commit produced this artifact.  Best-effort —
   "unknown" outside a git checkout (e.g. the dune sandbox of a
   distant future); never fails the run. *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* A named generic suite ("smoke", "macro", "fig9-matrix", or any
   [Registry.named] entry) run through the generic {!Sdriver}: one cell
   per spec, merged into one rendered table — the [bench --suite NAME]
   body.  Registry bench suites use bespoke kinds and are not runnable
   here (they ARE the experiments above); pointing at them is an error
   at flag-parse time. *)
let suite_body (suite : Suite.t) =
  Cells
    {
      shards =
        Array.map
          (fun s () -> Sdriver.run s)
          (Array.of_list suite.Suite.specs);
      print =
        (fun rows ->
          section (Printf.sprintf "Suite: %s" suite.Suite.name);
          print_string (Sdriver.render (Array.to_list rows)));
    }

(* The declarative spec behind an experiment name, for embedding in the
   artifact: registry experiments resolve directly; "suite:N" rows (the
   --suite flag) resolve the named suite N.  Hand-coded extras (micro,
   csv) carry no spec. *)
let spec_of name =
  match Registry.spec_text name with
  | Some text -> Some text
  | None ->
      if String.length name > 6 && String.sub name 0 6 = "suite:" then
        Registry.spec_text (String.sub name 6 (String.length name - 6))
      else None

let write_bench_json ~jobs ~trace_out ~wall_s outcomes =
  let text =
    Xc_sim.Bench_json.to_string ~git:(git_describe ())
      ~seed:Xc_platforms.Closed_loop.default_config.seed ~trace:trace_out ~jobs
      ~wall_s
      (List.map
         (fun (name, (o : _ Capture.measured)) ->
           Xc_sim.Bench_json.experiment ?spec:(spec_of name) ~name
             ~wall_s:o.wall_s o.events)
         outcomes)
  in
  Out_channel.with_open_bin "BENCH_sim.json" (fun oc -> output_string oc text)

let run_experiments ~jobs ~trace_out ~sample ~timeseries_out ~interval_us
    ~perfetto_out ~alert_rules experiments =
  let t0 = Unix.gettimeofday () in
  (* --perfetto wants both halves (spans and counter tracks); --alerts
     needs the snapshot series the rules are checked against. *)
  let outcomes =
    Capture.with_capture
      ~trace:(trace_out <> None || perfetto_out <> None)
      ~sample
      ~metrics:(timeseries_out <> None || perfetto_out <> None || alert_rules <> [])
      ~interval_ns:(float_of_int interval_us *. 1e3)
      (fun () ->
        Xc_sim.Parallel.run_sharded ~jobs (List.map shard_of_experiment experiments))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter (fun (_, (o : _ Capture.measured)) -> Stdlib.print_string o.value) outcomes;
  write_bench_json ~jobs ~trace_out ~wall_s outcomes;
  (* Every artifact has one track per experiment, each captured against
     a fresh recorder and registry, so all are byte-identical at any
     --jobs (tier-1 cmps them). *)
  Option.iter
    (fun path ->
      let snaps = Capture.write_timeseries ~path outcomes in
      Printf.eprintf
        "[bench] wrote %s (%d snapshot(s) at %dus across %d experiment(s))\n%!"
        path snaps interval_us (List.length outcomes))
    timeseries_out;
  Option.iter
    (fun path ->
      let tails = Capture.write_trace ~path outcomes in
      let base = Filename.remove_extension path in
      Printf.eprintf "[bench] wrote %s.tails (%d request-emitting track(s))\n%!"
        base tails;
      let sum f =
        List.fold_left (fun a (_, (o : _ Capture.measured)) -> a + f o.trace) 0 outcomes
      in
      let streams f =
        sum (fun t -> List.fold_left (fun a s -> a + f s) 0 t.Xc_trace.Trace.streams)
      in
      if sample > 1 then
        Printf.eprintf
          "[bench] sampling stride %d: kept %d of %d offered events\n%!" sample
          (streams (fun s -> s.kept))
          (streams (fun s -> s.seen));
      Printf.eprintf "[bench] wrote %s and %s.folded (%d trace events, %d dropped)\n%!"
        path base
        (sum (fun t -> List.length t.events))
        (sum (fun t -> t.dropped)))
    trace_out;
  Option.iter
    (fun path ->
      Printf.eprintf "[bench] wrote %s (%d combined track(s))\n%!" path
        (Capture.write_perfetto ~path outcomes))
    perfetto_out;
  let alarm =
    alert_rules <> []
    && List.fold_left
         (fun acc (name, (o : _ Capture.measured)) ->
           match Xc_sim.Metrics.firings ~rules:alert_rules o.telemetry with
           | [] -> acc
           | fs ->
               Printf.eprintf "[bench] %s:\n%s%!" name
                 (Xc_sim.Metrics.render_firings fs);
               true)
         false outcomes
  in
  Printf.eprintf "[bench] %d experiment(s), %d domain(s), %.2fs wall; wrote BENCH_sim.json\n%!"
    (List.length outcomes) jobs wall_s;
  if alarm then exit 1

let () =
  (match Xc_cpu.Costs.validate () with
  | Ok () -> ()
  | Error violations ->
      prerr_endline "cost-model validation failed:";
      List.iter (fun v -> prerr_endline ("  - " ^ v)) violations;
      exit 1);
  let usage_error fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("bench: " ^ m);
        exit 2)
      fmt
  in
  (* A bad XC_JOBS fails loudly up front (even if --jobs overrides it
     later): a typo silently running sequentially is worse than an
     error. *)
  let jobs =
    match Xc_sim.Parallel.jobs_from_env () with
    | Ok n -> ref n
    | Error msg -> usage_error "%s" msg
  in
  let set_jobs s =
    match Xc_sim.Parallel.jobs_of_string s with
    | Ok n -> jobs := n
    | Error _ ->
        usage_error "--jobs expects a positive integer (or 0 for auto), got %S" s
  in
  let positive r flag what s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> r := n
    | _ -> usage_error "%s expects a positive integer%s, got %S" flag what s
  in
  let sample = ref 1 and interval_us = ref 50 in
  let suite_exps = ref [] in
  let add_suite name =
    match Registry.find_named name with
    | Some suite ->
        suite_exps := ("suite:" ^ name, suite_body suite) :: !suite_exps
    | None ->
        usage_error "--suite expects a named generic suite (%s), got %S%s"
          (String.concat " " Registry.named_names)
          name
          (if Registry.find_bench name <> None || Registry.find_smoke name <> None
           then " (bench suites run as plain experiment names)"
           else "")
  in
  let alert_rules = ref [] in
  let add_alerts s =
    String.split_on_char ',' s
    |> List.iter (fun spec ->
           match Xc_sim.Metrics.rule_of_string (String.trim spec) with
           | Ok r -> alert_rules := !alert_rules @ [ r ]
           | Error m -> usage_error "--alerts: %s" m)
  in
  (* The flag grammar.  A value flag takes [--x V] or [--x=V], and a
     bare trailing [--x] is an error naming what it expects; a file
     flag alone writes its default file and [--x=F] names another.
     Any other argument is an experiment name. *)
  let value_flags =
    [
      ("--jobs", ("an argument", set_jobs));
      ("--sample", ("an argument", positive sample "--sample" ""));
      ("--alerts", ("CAT/NAME>V[,CAT/NAME<V...]", add_alerts));
      ("--suite", ("an argument", add_suite));
      ( "--interval",
        ("an argument", positive interval_us "--interval" " (sim-microseconds)") );
    ]
  and trace_out = ref None
  and timeseries_out = ref None
  and perfetto_out = ref None in
  let file_flags =
    [
      ("--trace", ("BENCH_trace.json", trace_out));
      ("--timeseries", ("BENCH_timeseries.csv", timeseries_out));
      ("--perfetto", ("BENCH_perfetto.json", perfetto_out));
    ]
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | arg :: rest -> (
        let flag, inline =
          match String.index_opt arg '=' with
          | Some i when i < String.length arg - 1 ->
              (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
          | _ -> (arg, None)
        in
        match (List.assoc_opt flag value_flags, List.assoc_opt flag file_flags) with
        | Some (expects, set), _ -> (
            match (inline, rest) with
            | Some v, rest | None, v :: rest ->
                set v;
                parse acc rest
            | None, [] -> usage_error "%s expects %s" flag expects)
        | None, Some (default, out) ->
            out := Some (Option.value inline ~default);
            parse acc rest
        | None, None -> parse (arg :: acc) rest)
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let names = parse [] args in
  let lookup name =
    if name = "micro" then Some [ ("micro", whole micro) ]
    else if name = "smoke" then Some smoke_experiments
    else
      match List.assoc_opt name all_experiments with
      | Some f -> Some [ (name, f) ]
      | None -> (
          (* Smoke variants ("macro-smoke", "fig8sim-smoke", ...) are
             addressable individually, e.g. for the tier-1 trace
             determinism rule. *)
          match List.assoc_opt name smoke_experiments with
          | Some f -> Some [ (name, f) ]
          | None -> None)
  in
  let suites = List.rev !suite_exps in
  let experiments =
    match (names, suites) with
    | [], [] ->
        (* Everything except the artifact writer (ask for "csv" explicitly). *)
        List.filter (fun (name, _) -> name <> "csv") all_experiments
    | [], suites -> suites
    | names, suites ->
        List.concat_map
          (fun name ->
            match lookup name with
            | Some es -> es
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s micro smoke %s\n"
                  name
                  (String.concat " " (List.map fst all_experiments))
                  (String.concat " "
                     (List.filter
                        (fun n -> not (List.mem_assoc n all_experiments))
                        (List.map fst smoke_experiments)));
                exit 2)
          names
        @ suites
  in
  run_experiments ~jobs:!jobs ~trace_out:!trace_out ~sample:!sample
    ~timeseries_out:!timeseries_out ~interval_us:!interval_us
    ~perfetto_out:!perfetto_out ~alert_rules:!alert_rules experiments
