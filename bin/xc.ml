(* The xc command-line tool: poke at the X-Containers reproduction from
   the shell.

     xc boot --image nginx:1.13 --repeat 500
     xc abom --style glibc-wide --sysno 15
     xc platforms
     xc syscall-costs [--cloud google] [--unpatched]
     xc profile mysql
     xc profiles
     xc boot-times

   (The paper's tables and figures live in `dune exec bench/main.exe`.) *)

open Cmdliner
module Capture = Xc_sim.Capture
module CS = Xc_platforms.Cluster_sim

let exit_err msg =
  prerr_endline ("xc: " ^ msg);
  exit 1

(* ---------------- shared flags ---------------- *)

(* Every flag several commands take is declared once here, as a term
   that already holds its validated value: a bad value exits 1 with a
   named error before the command body runs. *)

let cloud_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "amazon" | "ec2" -> Ok Xc_platforms.Config.Amazon_ec2
    | "google" | "gce" -> Ok Xc_platforms.Config.Google_gce
    | "local" -> Ok Xc_platforms.Config.Local_cluster
    | other -> Error (`Msg ("unknown cloud: " ^ other))
  in
  Arg.conv
    ( parse,
      fun fmt c ->
        Format.pp_print_string fmt
          (match c with
          | Xc_platforms.Config.Amazon_ec2 -> "amazon"
          | Xc_platforms.Config.Google_gce -> "google"
          | Xc_platforms.Config.Local_cluster -> "local") )

let runtime_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "docker" -> Ok Xc_platforms.Config.Docker
    | "gvisor" -> Ok Xc_platforms.Config.Gvisor
    | "clear" -> Ok Xc_platforms.Config.Clear_container
    | "xen-container" -> Ok Xc_platforms.Config.Xen_container
    | "x-container" | "xc" -> Ok Xc_platforms.Config.X_container
    | other -> Error (`Msg ("unknown runtime: " ^ other))
  in
  Arg.conv
    ( parse,
      fun fmt r -> Format.pp_print_string fmt (Xc_platforms.Config.runtime_name r) )

let positive flag n =
  if n < 1 then
    exit_err (Printf.sprintf "--%s expects a positive integer, got %d" flag n);
  n

let runtime_info =
  Arg.info [ "runtime"; "r" ]
    ~doc:"Runtime: docker, gvisor, clear, xen-container, x-container."

let runtime =
  Arg.(value & opt runtime_conv Xc_platforms.Config.X_container runtime_info)

let cloud =
  Arg.(value & opt cloud_conv Xc_platforms.Config.Amazon_ec2
      & info [ "cloud"; "c" ] ~doc:"Cloud: amazon, google, local.")

(* An explicit --jobs must be positive (0 means "auto": whatever the
   host can usefully run); absent, it falls back to $XC_JOBS (itself
   validated, 0-is-auto included) or 1. *)
let jobs =
  let validate = function
    | Some 0 -> Xc_sim.Parallel.recommended_jobs ()
    | Some n when n >= 1 -> n
    | Some n ->
        exit_err
          (Printf.sprintf
             "--jobs expects a positive integer (or 0 for auto), got %d" n)
    | None -> (
        match Xc_sim.Parallel.jobs_from_env () with
        | Ok n -> n
        | Error msg -> exit_err msg)
  in
  Term.(
    const validate
    $ Arg.(value & opt (some int) None
          & info [ "jobs"; "j" ]
              ~doc:"Worker domains (default \\$XC_JOBS or 1; 0 = auto); \
                    output and every artifact are identical at any value."))

let containers =
  Term.(
    const (positive "containers")
    $ Arg.(value & opt int 4
          & info [ "containers" ] ~docv:"N" ~doc:"Containers per node."))

let container_counts default =
  Arg.(value & opt (list int) default
      & info [ "containers" ] ~doc:"Comma-separated container counts.")

let connections_arg default =
  Arg.(value & opt int default
      & info [ "connections" ] ~docv:"N"
          ~doc:"Closed-loop client connections per container.")

let connections default =
  Term.(const (positive "connections") $ connections_arg default)

let sample default =
  Term.(
    const (positive "sample")
    $ Arg.(value & opt int default
          & info [ "sample" ] ~docv:"N"
              ~doc:"Sampling stride: keep one event per window of N per \
                    (cat,name) stream, with exact kept/seen accounting."))

let slowest default =
  Arg.(value & opt int default
      & info [ "slowest" ] ~docv:"K"
          ~doc:"Detail the K slowest requests end-to-end by mechanism.")

let file_arg i = Arg.(value & opt (some string) None & i)

let csv = file_arg (Arg.info [ "csv" ] ~docv:"FILE" ~doc:"Also write the results as CSV.")

let folded =
  file_arg
    (Arg.info [ "folded" ] ~docv:"FILE"
       ~doc:"Write the span timeline as collapsed-stack flamegraph lines \
             (flamegraph.pl / speedscope input).")

let tails =
  file_arg
    (Arg.info [ "tails" ] ~docv:"FILE"
       ~doc:"Write the tail attribution as a tails CSV (byte-identical \
             across --jobs).")

let timeseries =
  file_arg
    (Arg.info [ "timeseries" ] ~docv:"FILE"
       ~doc:"Write the sim-clock metric snapshots as Chrome counter events, \
             or CSV when FILE ends in .csv (byte-identical across --jobs).")

(* "--tail p99", "--tail 99.9", "--tail 99" all mean the same cut. *)
let tail =
  let parse s =
    let t = String.trim (String.lowercase_ascii s) in
    let t =
      if String.length t > 1 && t.[0] = 'p' then
        String.sub t 1 (String.length t - 1)
      else t
    in
    match float_of_string_opt t with
    | Some p when p > 0. && p <= 100. -> p
    | _ ->
        exit_err
          (Printf.sprintf "--tail expects a percentile like p99 or 99.9, got %S" s)
  in
  Term.(
    const (Option.map parse)
    $ Arg.(value & opt (some string) None
          & info [ "tail" ] ~docv:"PCT"
              ~doc:"Attribute the requests at or above this latency \
                    percentile (e.g. p99, 99.9) to mechanisms, with exact \
                    self-time partitioning.  Commands that always cut a \
                    tail (trace tails, lb tail) default to p99."))

let tail_or_p99 = Term.(const (Option.value ~default:99.) $ tail)

(* --tail with its optional --tails artifact. *)
let tail_cut =
  let pair pct path =
    match (pct, path) with
    | None, Some _ -> exit_err "--tails needs --tail"
    | None, None -> None
    | Some pct, path -> Some (pct, path)
  in
  Term.(const pair $ tail $ tails)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ---------------- xc boot ---------------- *)

let boot_cmd =
  let image =
    Arg.(value & opt string "nginx:1.13" & info [ "image"; "i" ] ~doc:"Docker image to boot.")
  in
  let memory =
    Arg.(value & opt int 128 & info [ "memory"; "m" ] ~doc:"Memory in MB.")
  in
  let vcpus = Arg.(value & opt int 1 & info [ "vcpus" ] ~doc:"Virtual CPUs.") in
  let repeat =
    Arg.(value & opt int 100 & info [ "repeat"; "r" ] ~doc:"Program executions.")
  in
  let lightvm =
    Arg.(value & flag & info [ "lightvm" ] ~doc:"Use the LightVM-style toolstack.")
  in
  let run image memory vcpus repeat lightvm =
    let xkernel = Xc_hypervisor.Xkernel.create ~pcpus:4 ~memory_mb:16384 () in
    let spec = Xcontainers.Spec.make ~memory_mb:memory ~vcpus ~name:"cli" ~image () in
    let toolstack = if lightvm then Xcontainers.Boot.Lightvm else Xcontainers.Boot.Xl in
    match Xcontainers.Xcontainer.boot ~toolstack ~xkernel spec with
    | Error e -> exit_err e
    | Ok xc ->
        Format.printf "booted %a@." Xcontainers.Spec.pp spec;
        Format.printf "boot time: %a@." Xcontainers.Boot.pp
          (Xcontainers.Xcontainer.boot_time xc);
        (match Xcontainers.Xcontainer.exec_program ~repeat xc with
        | Ok Xc_isa.Machine.Halted ->
            let s = Xcontainers.Xcontainer.syscall_stats xc in
            Format.printf
              "ran %d times: %d syscalls, %d trapped, %d converted (%.2f%%)@."
              repeat s.total s.via_trap s.via_function_call (100. *. s.reduction)
        | Ok _ -> exit_err "program did not halt"
        | Error e ->
            Format.printf "(image has no entry program: %s)@." e);
        Xcontainers.Xcontainer.shutdown ~xkernel xc
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Boot an X-Container and run its program under ABOM.")
    Term.(const run $ image $ memory $ vcpus $ repeat $ lightvm)

(* ---------------- xc abom ---------------- *)

let style_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "glibc-small" -> Ok Xc_isa.Builder.Glibc_small
    | "glibc-wide" -> Ok Xc_isa.Builder.Glibc_wide
    | "go-stack" -> Ok Xc_isa.Builder.Go_stack
    | "cancellable" -> Ok Xc_isa.Builder.Cancellable
    | "exotic" -> Ok Xc_isa.Builder.Exotic
    | other -> Error (`Msg ("unknown wrapper style: " ^ other))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Xc_isa.Builder.style_to_string s))

let abom_cmd =
  let style =
    Arg.(value & opt style_conv Xc_isa.Builder.Glibc_small
        & info [ "style"; "s" ]
            ~doc:"Wrapper style: glibc-small, glibc-wide, go-stack, cancellable, exotic.")
  in
  let sysno = Arg.(value & opt int 0 & info [ "sysno"; "n" ] ~doc:"Syscall number.") in
  let offline =
    Arg.(value & flag & info [ "offline" ] ~doc:"Also run the aggressive offline tool.")
  in
  let run style sysno offline =
    let prog = Xc_isa.Builder.build [ (style, sysno) ] in
    let site = List.hd prog.sites in
    let dump title =
      Format.printf "--- %s ---@." title;
      print_endline
        (Xc_isa.Image.disassemble_range prog.image ~off:site.wrapper_off ~len:12);
      print_newline ()
    in
    dump "before";
    let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
    let outcome = Xc_abom.Patcher.patch_site patcher prog.image ~syscall_off:site.syscall_off in
    Format.printf "online patch: %s@.@." (Xc_abom.Patcher.outcome_to_string outcome);
    dump "after online ABOM";
    if offline then begin
      let report = Xc_abom.Offline_tool.patch_image ~aggressive:true patcher prog.image in
      Format.printf "offline tool: %a@.@." Xc_abom.Offline_tool.pp_report report;
      dump "after offline tool"
    end
  in
  Cmd.v
    (Cmd.info "abom" ~doc:"Show ABOM rewriting one syscall site, byte for byte.")
    Term.(const run $ style $ sysno $ offline)

(* ---------------- xc platforms ---------------- *)

let platforms_cmd =
  let run () =
    let open Xc_platforms.Config in
    let t =
      Xc_sim.Table.create
        (("platform", Xc_sim.Table.Left)
        :: List.map
             (fun f -> (feature_name f, Xc_sim.Table.Left))
             [ Binary_compat; Multiprocess; Multicore; Kernel_modules; No_hw_virt ])
    in
    List.iter
      (fun r ->
        Xc_sim.Table.add_row t
          (runtime_name r
          :: List.map
               (fun f -> if supports r f then "yes" else "-")
               [ Binary_compat; Multiprocess; Multicore; Kernel_modules; No_hw_virt ]))
      [ Docker; Gvisor; Clear_container; Xen_container; X_container; Unikernel; Graphene ];
    Xc_sim.Table.print t
  in
  Cmd.v
    (Cmd.info "platforms" ~doc:"The capability matrix of Section 2.3.")
    Term.(const run $ const ())

(* ---------------- xc syscall-costs ---------------- *)

let syscall_costs_cmd =
  let unpatched =
    Arg.(value & flag & info [ "unpatched" ] ~doc:"Without the Meltdown patches.")
  in
  let run cloud unpatched =
    let t =
      Xc_sim.Table.create
        [
          ("platform", Xc_sim.Table.Left);
          ("syscall entry", Xc_sim.Table.Right);
          ("interrupt", Xc_sim.Table.Right);
          ("process switch", Xc_sim.Table.Right);
          ("fork", Xc_sim.Table.Right);
        ]
    in
    List.iter
      (fun runtime ->
        let config =
          Xc_platforms.Config.make ~cloud ~meltdown_patched:(not unpatched) runtime
        in
        let p = Xc_platforms.Platform.create config in
        let ns v = Printf.sprintf "%.0fns" v in
        Xc_sim.Table.add_row t
          [
            Xc_platforms.Config.name config;
            ns (Xc_platforms.Platform.syscall_entry_ns p);
            ns (Xc_platforms.Platform.irq_ns p);
            ns (Xc_platforms.Platform.process_switch_ns p);
            Printf.sprintf "%.1fus" (Xc_platforms.Platform.fork_ns p /. 1e3);
          ])
      [
        Xc_platforms.Config.Docker;
        Xc_platforms.Config.Gvisor;
        Xc_platforms.Config.Clear_container;
        Xc_platforms.Config.Xen_container;
        Xc_platforms.Config.X_container;
        Xc_platforms.Config.Unikernel;
        Xc_platforms.Config.Graphene;
      ];
    Xc_sim.Table.print t
  in
  Cmd.v
    (Cmd.info "syscall-costs" ~doc:"The calibrated per-platform cost table.")
    Term.(const run $ cloud $ unpatched)

(* ---------------- xc profile / profiles ---------------- *)

let profile_cmd =
  let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP") in
  let invocations =
    Arg.(value & opt int 50_000 & info [ "invocations" ] ~doc:"Workload size.")
  in
  let run name invocations =
    match Xc_apps.Profiles.find name with
    | None -> exit_err ("unknown application: " ^ name)
    | Some profile ->
        let m = Xc_apps.Profiles.measure ~invocations profile in
        Format.printf "%s (%s), driven by %s@." profile.name profile.implementation
          profile.benchmark;
        Format.printf "  syscall sites: %d (%d patched online)@."
          (List.length profile.sites) m.sites_patched;
        Format.printf "  online ABOM reduction:  %.2f%% (paper: %.1f%%)@."
          (100. *. m.auto_reduction)
          (100. *. profile.paper_reduction);
        Format.printf "  with offline tool:      %.2f%%%s@."
          (100. *. m.manual_reduction)
          (match profile.paper_manual_reduction with
          | Some v -> Printf.sprintf " (paper: %.1f%%)" (100. *. v)
          | None -> "");
        Format.printf "  atomic cmpxchg stores:  %d@." m.cmpxchg_ops
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Measure ABOM coverage for one Table 1 application.")
    Term.(const run $ app_arg $ invocations)

let profiles_cmd =
  let run () =
    List.iter
      (fun (p : Xc_apps.Profiles.profile) ->
        Printf.printf "%-20s %-14s %s\n" p.name p.implementation p.benchmark)
      Xc_apps.Profiles.all
  in
  Cmd.v (Cmd.info "profiles" ~doc:"List the Table 1 applications.") Term.(const run $ const ())

(* ---------------- xc boot-times ---------------- *)

let boot_times_cmd =
  let run () =
    List.iter
      (fun (r : Xcontainers.Figures.boot_row) ->
        Format.printf "%-34s %a@." r.label Xcontainers.Boot.pp r.breakdown)
      (Xcontainers.Figures.boot_times ())
  in
  Cmd.v
    (Cmd.info "boot-times" ~doc:"Instantiation-time comparison (Section 4.5).")
    Term.(const run $ const ())

(* ---------------- xc migrate ---------------- *)

let migrate_cmd =
  let memory = Arg.(value & opt int 128 & info [ "memory"; "m" ] ~doc:"Guest MB.") in
  let dirty =
    Arg.(value & opt float 5000. & info [ "dirty-rate" ] ~doc:"Dirtied pages/s.")
  in
  let gbps = Arg.(value & opt float 1.0 & info [ "link" ] ~doc:"Migration link Gb/s.") in
  let run memory dirty gbps =
    let params =
      {
        (Xc_hypervisor.Migration.default_params ~memory_mb:memory) with
        dirty_pages_per_s = dirty;
        link_gbps = gbps;
      }
    in
    let r = Xc_hypervisor.Migration.migrate params in
    List.iter
      (fun (round : Xc_hypervisor.Migration.round) ->
        Printf.printf "round %2d: %7d pages, %8.1fms\n" round.index
          round.pages_sent
          (round.duration_ns /. 1e6))
      r.rounds;
    Printf.printf "total: %d pages in %.0fms, downtime %.1fms, %s\n"
      r.total_pages_sent (r.total_ns /. 1e6) (r.downtime_ns /. 1e6)
      (if r.converged then "converged" else "forced stop-and-copy")
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Pre-copy live migration of an X-Container.")
    Term.(const run $ memory $ dirty $ gbps)

(* ---------------- xc clone ---------------- *)

let clone_cmd =
  let memory = Arg.(value & opt int 128 & info [ "memory"; "m" ] ~doc:"Guest MB.") in
  let resident =
    Arg.(value & opt int 2048 & info [ "resident" ] ~doc:"Hot pages copied eagerly.")
  in
  let run memory resident =
    let s = Xcontainers.Cloning.snapshot_of_parent ~memory_mb:memory ~resident_pages:resident in
    let c = Xcontainers.Cloning.clone s in
    Printf.printf "toolstack      %8.2fms\n" (c.toolstack_ns /. 1e6);
    Printf.printf "CoW setup      %8.2fms\n" (c.page_sharing_setup_ns /. 1e6);
    Printf.printf "eager copy     %8.2fms\n" (c.eager_copy_ns /. 1e6);
    Printf.printf "total          %8.2fms  (%.0fx faster than a cold boot)\n"
      (c.total_ns /. 1e6)
      (Xcontainers.Cloning.speedup_vs_cold_boot s)
  in
  Cmd.v
    (Cmd.info "clone" ~doc:"SnowFlock-style clone of a warm X-Container.")
    Term.(const run $ memory $ resident)

(* ---------------- xc security ---------------- *)

let security_cmd =
  let run () =
    List.iter
      (fun (p : Xcontainers.Security.profile) ->
        Printf.printf "%-16s %-22s TCB %6d kLoC, surface %3d, exposure %.4f\n"
          (Xc_platforms.Config.runtime_name p.runtime)
          (Xcontainers.Security.boundary_name p.boundary)
          p.tcb_kloc p.attack_surface
          (Xcontainers.Security.vulnerability_exposure p))
      Xcontainers.Security.all
  in
  Cmd.v
    (Cmd.info "security" ~doc:"TCB / attack-surface comparison (Section 3.4).")
    Term.(const run $ const ())

(* ---------------- xc coldstart ---------------- *)

let coldstart_cmd =
  let rate =
    Arg.(value & opt float 0.05 & info [ "rate" ] ~doc:"Invocations per second.")
  in
  let run rate =
    List.iter
      (fun path ->
        let r =
          Xc_apps.Coldstart.run path (Xc_apps.Coldstart.default_config ~rate_rps:rate)
        in
        Printf.printf "%-28s cold %3d/%d  p50 %7.0fms  p99 %7.0fms\n"
          (Xc_apps.Coldstart.spawn_path_name path)
          r.cold_starts r.invocations
          (r.p50_latency_ns /. 1e6)
          (r.p99_latency_ns /. 1e6))
      Xc_apps.Coldstart.all_paths
  in
  Cmd.v
    (Cmd.info "coldstart" ~doc:"Serverless cold-start tails by spawn path.")
    Term.(const run $ rate)

(* ---------------- xc build-binary / patch-binary ---------------- *)

let styles_arg =
  Arg.(value
      & opt (list style_conv) [ Xc_isa.Builder.Glibc_small; Xc_isa.Builder.Glibc_wide ]
      & info [ "styles" ] ~doc:"Comma-separated wrapper styles.")

let build_binary_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run out styles =
    let wrappers = List.mapi (fun i style -> (style, i)) styles in
    let prog = Xc_isa.Builder.build wrappers in
    Xc_isa.Xelf.save prog.image ~path:out;
    Printf.printf "wrote %s: %d bytes, %d syscall sites\n" out
      (Xc_isa.Image.size prog.image)
      (List.length prog.sites)
  in
  Cmd.v
    (Cmd.info "build-binary" ~doc:"Assemble a synthetic binary into a XELF file.")
    Term.(const run $ out $ styles_arg)

let patch_binary_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let aggressive =
    Arg.(value & flag & info [ "aggressive" ] ~doc:"Also rewrite cancellable sites.")
  in
  let run file aggressive =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
        let report = Xc_abom.Offline_tool.patch_image ~aggressive patcher img in
        Xc_isa.Xelf.save img ~path:file;
        Format.printf "%a; rewrote %s in place@." Xc_abom.Offline_tool.pp_report
          report file
  in
  Cmd.v
    (Cmd.info "patch-binary"
       ~doc:"Run the offline ABOM tool over a XELF binary at rest.")
    Term.(const run $ file $ aggressive)

let disasm_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        List.iter
          (fun (s : Xc_isa.Image.symbol) ->
            Printf.printf "<%s>:\n%s\n\n" s.name
              (Xc_isa.Image.disassemble_range img ~off:s.offset
                 ~len:(Stdlib.min s.size (Xc_isa.Image.size img - s.offset))))
          (Xc_isa.Image.symbols img)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a XELF binary by symbol.")
    Term.(const run $ file)

(* ---------------- xc profile-binary ---------------- *)

let profile_binary_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let iterations =
    Arg.(value & opt int 200 & info [ "iterations"; "n" ] ~doc:"Workload runs.")
  in
  let run file iterations =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        let entry =
          match Xc_isa.Image.find_symbol img "main" with
          | Some s -> s.Xc_isa.Image.offset
          | None -> 0
        in
        let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
        let config = Xc_abom.Patcher.machine_config patcher () in
        let m = Xc_isa.Machine.create ~config img ~entry in
        for _ = 1 to iterations do
          Xc_isa.Machine.reset m ~entry;
          match Xc_isa.Machine.run ~fuel:1_000_000 m with
          | Xc_isa.Machine.Halted -> ()
          | Fault msg -> exit_err msg
          | Fuel_exhausted -> exit_err "fuel exhausted"
        done;
        Format.printf "%a@." Xc_abom.Profile.pp (Xc_abom.Profile.of_machine m)
  in
  Cmd.v
    (Cmd.info "profile-binary"
       ~doc:"Run a XELF binary under the X-Kernel and print its syscall profile.")
    Term.(const run $ file $ iterations)

(* ---------------- xc sweep ---------------- *)

let sweep_cmd =
  let duration_ms =
    Arg.(value & opt float 300.
        & info [ "duration" ] ~doc:"Simulated duration per point, in ms.")
  in
  let trace_out =
    Arg.(value & opt ~vopt:(Some "sweep.trace.json") (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:"Also record a trace of the sweep.  Long cluster-sim \
                  sweeps emit far more events than any reasonable ring, \
                  so sampling is on by default (stride \\$(b,--sample), \
                  exact kept/seen accounting printed); disable it with \
                  \\$(b,--no-sample).")
  in
  let no_sample =
    Arg.(value & flag
        & info [ "no-sample" ]
            ~doc:"With --trace: record every event instead of sampling \
                  (the ring may drop the oldest under load).")
  in
  let run counts jobs duration_ms trace_out sample no_sample =
    let stride = if no_sample then 1 else sample in
    let point mode n =
      { (CS.default_config mode ~containers:n) with duration_ns = duration_ms *. 1e6 }
    in
    let configs =
      List.concat_map (fun n -> [ point CS.Flat n; point CS.Hierarchical n ]) counts
    in
    let m =
      Capture.(
        with_capture ~trace:(trace_out <> None) ~capacity:(1 lsl 18)
          ~sample:stride (fun () -> measure (fun () -> CS.run_sweep ~jobs configs)))
    in
    let t =
      Xc_sim.Table.create
        [
          ("containers", Xc_sim.Table.Right);
          ("scheduler", Xc_sim.Table.Left);
          ("req/s", Xc_sim.Table.Right);
          ("p99", Xc_sim.Table.Right);
          ("container switches", Xc_sim.Table.Right);
        ]
    in
    List.iter2
      (fun (c : CS.config) (r : CS.result) ->
        Xc_sim.Table.add_row t
          [
            string_of_int c.containers;
            (match c.mode with CS.Flat -> "flat" | CS.Hierarchical -> "hierarchical");
            Xc_sim.Table.fmt_si r.throughput_rps;
            Printf.sprintf "%.1fms" (r.p99_latency_ns /. 1e6);
            string_of_int r.container_switches;
          ])
      configs m.value;
    Xc_sim.Table.print t;
    Printf.printf "%d points in %.2fs wall with %d domain(s)\n"
      (List.length configs) m.wall_s jobs;
    Option.iter
      (fun path ->
        let { Xc_trace.Trace.events; dropped; streams; _ } = m.trace in
        Xc_trace.Export.to_file ~dropped ~path [ ("sweep", events) ];
        let seen =
          List.fold_left (fun a (s : Xc_trace.Trace.Stream.t) -> a + s.seen) 0 streams
        in
        if stride > 1 then
          Printf.printf "wrote %s (%d events kept of %d offered, stride %d)\n"
            path (List.length events) seen stride
        else Printf.printf "wrote %s (%d events)\n" path (List.length events))
      trace_out
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Figure 8 scheduler sweep, fanned out over worker domains.")
    Term.(const run $ container_counts [ 16; 64; 150 ] $ jobs $ duration_ms
          $ trace_out $ sample 16 $ no_sample)

(* ---------------- xc experiments ---------------- *)

let experiments_cmd =
  let run () =
    print_endline "paper experiments:";
    List.iter
      (fun e -> Format.printf "  %a@." Xcontainers.Inventory.pp_entry e)
      Xcontainers.Inventory.paper_entries;
    print_endline "extensions:";
    List.iter
      (fun e -> Format.printf "  %a@." Xcontainers.Inventory.pp_entry e)
      Xcontainers.Inventory.extension_entries;
    print_endline "";
    print_endline "run any of them with:  dune exec bench/main.exe <id>"
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"List every reproducible experiment.")
    Term.(const run $ const ())

(* ---------------- xc run-app ---------------- *)

let app_table =
  [
    ("nginx", `Nginx); ("memcached", `Memcached); ("redis", `Redis);
    ("etcd", `Etcd); ("mongodb", `Mongo); ("postgres", `Postgres);
    ("rabbitmq", `Rabbitmq); ("mysql", `Mysql); ("fluentd", `Fluentd);
    ("elasticsearch", `Elasticsearch); ("influxdb", `Influxdb);
  ]

let app_conv =
  let table = app_table in
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) table with
    | Some app -> Ok app
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown app %S; one of: %s" s
                (String.concat ", " (List.map fst table))))
  in
  let print fmt app =
    let name = List.find (fun (_, a) -> a = app) table |> fst in
    Format.pp_print_string fmt name
  in
  Arg.conv (parse, print)

let run_app_cmd =
  let app_arg =
    Arg.(value & opt app_conv `Nginx & info [ "app"; "a" ] ~doc:"Application.")
  in
  let run app runtime connections =
    let config = Xc_platforms.Config.make runtime in
    let platform = Xc_platforms.Platform.create config in
    let server = Xcontainers.Figures.server_for_public config platform app in
    let result =
      Xc_platforms.Closed_loop.run
        { Xc_platforms.Closed_loop.default_config with connections }
        server
    in
    Printf.printf
      "%s on %s: %.0f req/s (p50 %.0fus, p99 %.0fus, %d served in 2s simulated)\n"
      (Format.asprintf "%a" (Arg.conv_printer app_conv) app)
      (Xc_platforms.Config.name config)
      result.throughput_rps
      (result.p50_ns /. 1e3)
      (result.p99_ns /. 1e3)
      result.completed
  in
  Cmd.v
    (Cmd.info "run-app"
       ~doc:"Closed-loop benchmark of any modelled application on any runtime.")
    Term.(const run $ app_arg $ runtime $ connections_arg 64)

(* ---------------- xc trace ---------------- *)

let unixbench_workloads =
  [
    ("syscalls", Xc_apps.Unixbench.Syscall_rate);
    ("fig4", Xc_apps.Unixbench.Syscall_rate);
    ("execl", Xc_apps.Unixbench.Execl);
    ("file-copy", Xc_apps.Unixbench.File_copy);
    ("pipe", Xc_apps.Unixbench.Pipe_throughput);
    ("context-switch", Xc_apps.Unixbench.Context_switching);
    ("process-creation", Xc_apps.Unixbench.Process_creation);
  ]

(* The httpd workload: serve [requests] GETs against pages of very
   different sizes through the semantic substrate, with wire hops and
   interrupt delivery modelled per runtime, so each request span has
   syscall-work / net.hop / evtchn children and "slowest" means
   something. *)
let run_traced_httpd config platform ~requests =
  let fail_vfs = function
    | Ok v -> v
    | Error e -> exit_err ("httpd: " ^ Xc_os.Vfs.error_to_string e)
  in
  let kernel = Xc_os.Kernel.create ~config:Xc_os.Kernel.xlibos_config () in
  let vfs = Xc_os.Kernel.vfs kernel in
  fail_vfs (Xc_os.Vfs.mkdir_p vfs "/var/www");
  let sizes = [| 512; 256; 16384; 1024; 65536; 2048; 128; 8192 |] in
  Array.iteri
    (fun i size ->
      fail_vfs
        (Xc_os.Vfs.write_file vfs
           (Printf.sprintf "/var/www/page%d.html" i)
           (Bytes.make size 'x')))
    sizes;
  let server =
    match Xc_apps.Httpd.create ~kernel ~port:80 ~docroot:"/var/www" with
    | Ok s -> s
    | Error e -> exit_err ("httpd: " ^ e)
  in
  let delivery =
    match config.Xc_platforms.Config.runtime with
    | Xc_platforms.Config.X_container | Xc_platforms.Config.Xen_container ->
        Xc_hypervisor.Event_channel.Direct_user_mode
    | _ -> Xc_hypervisor.Event_channel.Via_hypervisor
  in
  let events = Xc_hypervisor.Event_channel.create delivery in
  Xc_hypervisor.Event_channel.bind events ~port:80;
  let n_pages = Array.length sizes in
  for i = 1 to requests do
    let page = i mod n_pages in
    (* Every 11th request misses, so 404s show up in the profile. *)
    let path =
      if i mod 11 = 0 then "/missing.html"
      else Printf.sprintf "/page%d.html" page
    in
    let response_bytes = if i mod 11 = 0 then 128 else sizes.(page) + 64 in
    let deliver () =
      ignore
        (Xc_platforms.Platform.request_net_ns platform ~request_bytes:64
           ~response_bytes);
      ignore (Xc_hypervisor.Event_channel.notify events ~port:80);
      ignore (Xc_hypervisor.Event_channel.deliver_pending events (fun _ -> ()))
    in
    ignore (Xc_apps.Httpd.get ~id:i ~deliver server ~path)
  done

(* The engine-driven workloads [trace run] and [top] share: cluster
   (the Fig 9 scheduling simulation), closed-loop (the wrk-style driver
   with per-request mechanism spans) or a modelled application.  Cost
   queries emit trace spans themselves, so the cluster and closed-loop
   drivers are priced here, before any capture is switched on; an
   application's server is priced inside a [~traced] run, so its
   capture shows the pricing too.  The flag marks the workloads whose
   requests emit span bundles. *)
let engine_workload ~jobs ~traced config platform exp =
  let server app = Xcontainers.Figures.server_for_public config platform app in
  let run ?(trace_mechanisms = []) ~duration_ns ~warmup_ns server =
    ignore
      (Xc_platforms.Closed_loop.run
         {
           Xc_platforms.Closed_loop.default_config with
           duration_ns;
           warmup_ns;
           trace_mechanisms;
         }
         server)
  in
  match exp with
  | "cluster" ->
      let cs = CS.config_of_platform platform in
      Some (true, fun () -> ignore (CS.run_sweep ~jobs [ cs ]))
  | "closed-loop" ->
      let s = server `Nginx in
      let trace_mechanisms =
        Xc_apps.Recipe.mechanisms platform Xc_apps.Nginx.static_request_wrk
      in
      Some (true, fun () -> run ~trace_mechanisms ~duration_ns:3e7 ~warmup_ns:3e6 s)
  | exp ->
      Option.map
        (fun app ->
          let s = lazy (server app) in
          if not traced then ignore (Lazy.force s);
          (false, fun () -> run ~duration_ns:2e8 ~warmup_ns:2e7 (Lazy.force s)))
        (List.assoc_opt exp app_table)

let trace_run_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"EXPERIMENT"
            ~doc:"A UnixBench loop (syscalls, execl, file-copy, pipe, \
                  context-switch, process-creation), an application \
                  (nginx, memcached, redis, ...), httpd (the \
                  executable server, with per-request tracing), \
                  closed-loop (the wrk-style driver with per-request \
                  mechanism spans), or cluster (the Fig 9 scheduling \
                  simulation, ditto).")
  in
  let iterations =
    Arg.(value & opt int 100
        & info [ "iterations"; "n" ] ~doc:"Loop iterations (UnixBench workloads).")
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "out"; "o" ] ~docv:"FILE"
            ~doc:"Write the trace: Chrome trace-event JSON, or CSV when FILE \
                  ends in .csv.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~doc:"Names per category in the summary.")
  in
  let run exp runtime cloud iterations out top sample folded slowest tail_cut
      jobs timeseries =
    let module Trace = Xc_trace.Trace in
    let module Export = Xc_trace.Export in
    let module Profile = Xc_trace.Profile in
    let exp = String.lowercase_ascii exp in
    let config = Xc_platforms.Config.make ~cloud runtime in
    let platform = Xc_platforms.Platform.create config in
    let bundles, workload =
      match (exp, List.assoc_opt exp unixbench_workloads) with
      | "httpd", _ ->
          (false, fun () -> run_traced_httpd config platform ~requests:iterations)
      | _, Some test ->
          ( false,
            fun () ->
              for _ = 1 to iterations do
                ignore (Xc_apps.Unixbench.per_iteration_ns platform test)
              done )
      | _, None -> (
          match engine_workload ~jobs ~traced:true config platform exp with
          | Some w -> w
          | None ->
              exit_err
                (Printf.sprintf
                   "unknown experiment %S; one of: httpd closed-loop cluster %s"
                   exp
                   (String.concat ", "
                      (List.map fst unixbench_workloads @ List.map fst app_table))))
    in
    (* Request bundles are many small spans; give the ring room so no
       request loses part of its bundle to drops. *)
    let m =
      Capture.(
        with_capture ~trace:true
          ?capacity:(if bundles then Some (1 lsl 18) else None)
          ~sample ~metrics:(timeseries <> None) (fun () -> measure workload))
    in
    let { Trace.events; dropped; streams; _ } = m.trace in
    let label = exp ^ "/" ^ Xc_platforms.Config.name config in
    (* With a sampling stride, rescale spans by the exact per-stream
       kept/seen counters so the summary estimates the full run. *)
    let scaled = Profile.rescale ~streams events in
    print_string (Export.render_summary ~top scaled);
    if sample > 1 then begin
      Printf.printf "\nsampling stride %d (summary rescaled by kept/seen):\n"
        sample;
      print_string (Profile.render_streams streams)
    end;
    (match tail_cut with
    | None ->
        if slowest > 0 then begin
          print_newline ();
          print_string (Profile.render_slowest ~k:slowest events)
        end
    | Some (pct, tails_out) -> (
        print_newline ();
        match Profile.(tail_at ~label ~pct (attribute events)) with
        | None ->
            print_string
              "(no request spans in trace; --tail needs a request-emitting \
               workload)\n"
        | Some t ->
            print_string (Profile.render_tail ~slowest t);
            Option.iter
              (fun path ->
                Export.tails_to_file ~path [ t ];
                Printf.printf "wrote %s\n" path)
              tails_out));
    if dropped > 0 then
      Printf.printf "(ring full: %d oldest events dropped)\n" dropped;
    Option.iter
      (fun path ->
        (* Request spans go to their own track: a request-id lane above
           the mechanism lane, tying each request to its children. *)
        let requests, rest =
          List.partition
            (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.cat = "request")
            events
        in
        let tracks =
          if requests = [] then [ (label, events) ]
          else [ (label, rest); (label ^ "/request-id", requests) ]
        in
        Export.to_file ~dropped ~path tracks;
        Printf.printf "wrote %s (%d events)\n" path (List.length events))
      out;
    Option.iter
      (fun path ->
        write_file path (Export.to_folded [ (label, events) ]);
        Printf.printf "wrote %s\n" path)
      folded;
    Option.iter
      (fun path ->
        Printf.printf "wrote %s (%d snapshots)\n" path
          (Capture.write_timeseries ~path [ (label ^ "/telemetry", m) ]))
      timeseries
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Trace one workload and print its per-category cost summary.")
    Term.(const run $ exp_arg $ runtime $ cloud $ iterations $ out $ top
          $ sample 1 $ folded $ slowest 0 $ tail_cut $ jobs $ timeseries)

let trace_diff_cmd =
  let a_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
  let b_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
  let run a b =
    match (Xc_trace.Export.of_file a, Xc_trace.Export.of_file b) with
    | Ok ea, Ok eb ->
        print_string
          (Xc_trace.Diff.render ~a_label:(Filename.basename a)
             ~b_label:(Filename.basename b) ~a:ea ~b:eb ())
    | Error e, _ | _, Error e -> exit_err e
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Explain the cost delta between two trace files, by category.")
    Term.(const run $ a_arg $ b_arg)

(* ---------------- xc trace tails ---------------- *)

(* One traced cluster run of an already priced config (so the capture
   holds only the run's own events and the partition is exact), and its
   [pct] tail. *)
let cluster_tail ~jobs ~pct ~label cs =
  let m =
    Capture.(
      with_capture ~trace:true ~capacity:(1 lsl 18) (fun () ->
          measure (fun () -> ignore (CS.run_sweep ~jobs [ cs ]))))
  in
  match Xc_trace.Profile.(tail_at ~label ~pct (attribute m.trace.events)) with
  | Some t -> (t, (label, m.trace.events))
  | None -> exit_err (label ^ ": trace has no request spans")

let trace_tails_cmd =
  let a_arg =
    Arg.(required & pos 0 (some runtime_conv) None
        & info [] ~docv:"A"
            ~doc:"First runtime (docker, gvisor, clear, xen-container, \
                  x-container).")
  in
  let b_arg =
    Arg.(value & pos 1 (some runtime_conv) None
        & info [] ~docv:"B"
            ~doc:"Second runtime; when given, the two tails are diffed and \
                  the mechanism explaining the p99 gap is ranked.")
  in
  let diff_flag =
    Arg.(value & flag
        & info [ "diff" ]
            ~doc:"Diff the two tails (implied whenever B is given; kept as \
                  an explicit spelling).")
  in
  let run a b _diff cloud containers connections pct slowest csv folded jobs =
    (* One traced fig-9-style cluster run per side; at the default 5
       connections a hierarchical runtime's vCPU saturates and queueing
       dominates its tail, at 1 the diff isolates the per-mechanism
       cost gap. *)
    let side runtime =
      let config = Xc_platforms.Config.make ~cloud runtime in
      let platform = Xc_platforms.Platform.create config in
      cluster_tail ~jobs ~pct
        ~label:("cluster/" ^ Xc_platforms.Config.name config)
        (CS.config_of_platform ~containers ~connections platform)
    in
    let ta, track_a = side a in
    let tails, tracks =
      match b with
      | Some b ->
          let tb, track_b = side b in
          print_string (Xc_trace.Diff.render_tails ~a:ta ~b:tb);
          ([ ta; tb ], [ track_a; track_b ])
      | None ->
          print_string (Xc_trace.Profile.render_tail ~slowest ta);
          ([ ta ], [ track_a ])
    in
    Option.iter
      (fun path ->
        Xc_trace.Export.tails_to_file ~path tails;
        Printf.printf "wrote %s\n" path)
      csv;
    Option.iter
      (fun path ->
        write_file path (Xc_trace.Export.to_folded tracks);
        Printf.printf "wrote %s\n" path)
      folded
  in
  Cmd.v
    (Cmd.info "tails"
       ~doc:"Attribute the p99 tail of the Fig 9 cluster workload to \
             mechanisms, and diff the tail composition of two runtimes.")
    Term.(const run $ a_arg $ b_arg $ diff_flag $ cloud $ containers
          $ connections 5 $ tail_or_p99 $ slowest 0 $ csv $ folded $ jobs)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record execution traces and diff them: who wins and why.")
    [ trace_run_cmd; trace_diff_cmd; trace_tails_cmd ]

(* ---------------- xc top ---------------- *)

(* ASCII sparkline over a series, scaled to the series maximum. *)
let spark_levels = " .:-=+*#%@"

let sparkline values =
  let mx = List.fold_left Float.max 0. values in
  String.concat ""
    (List.map
       (fun v ->
         let i =
           if mx <= 0. || v <= 0. then 0
           else min 9 (int_of_float (Float.round (v /. mx *. 9.)))
         in
         String.make 1 spark_levels.[i])
       values)

let last_n k l =
  let n = List.length l in
  if n <= k then l else List.filteri (fun i _ -> i >= n - k) l

let top_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"WORKLOAD"
            ~doc:"cluster (the Fig 9 scheduling simulation), closed-loop \
                  (the wrk-style driver), or an application (nginx, \
                  memcached, redis, ...) — the workloads that drive the \
                  sim engine, whose clock paces the snapshots.")
  in
  let interval =
    Arg.(value & opt float 50.
        & info [ "interval"; "i" ] ~docv:"N"
            ~doc:"Snapshot cadence in simulated microseconds.")
  in
  let rows =
    Arg.(value & opt int 10
        & info [ "snapshots" ] ~docv:"K"
            ~doc:"Snapshot lines to print, evenly spaced across the run \
                  and ending at the last one.")
  in
  let rate =
    Arg.(value & opt ~vopt:(Some 1) (some int) None
        & info [ "rate" ] ~docv:"W"
            ~doc:"Derivative view: show each counter as a per-second rate \
                  over its last W snapshot intervals (bare --rate means \
                  W=1) instead of the cumulative total.  Gauges and \
                  distributions are unchanged.")
  in
  let alert =
    Arg.(value & opt_all string []
        & info [ "alert" ] ~docv:"RULE"
            ~doc:"Alert rule CAT/NAME>V or CAT/NAME<V, checked against \
                  every snapshot (repeatable).  Firing metrics are marked \
                  '!' next to their sparkline and listed after the table.")
  in
  let run exp runtime cloud interval_us rows timeseries rate jobs alert =
    let module M = Xc_sim.Metrics in
    let alert_rules =
      List.map
        (fun s ->
          match M.rule_of_string s with
          | Ok r -> r
          | Error e -> exit_err ("--alert: " ^ e))
        alert
    in
    if (not (Float.is_finite interval_us)) || interval_us <= 0. then
      exit_err
        (Printf.sprintf
           "--interval expects a positive number of sim-microseconds, got %g"
           interval_us);
    if rows < 1 then
      exit_err
        (Printf.sprintf "--snapshots expects a positive integer, got %d" rows);
    (match rate with
    | Some w when w < 1 ->
        exit_err
          (Printf.sprintf "--rate expects a positive number of intervals, got %d" w)
    | _ -> ());
    let exp = String.lowercase_ascii exp in
    let config = Xc_platforms.Config.make ~cloud runtime in
    let platform = Xc_platforms.Platform.create config in
    let workload =
      match engine_workload ~jobs ~traced:false config platform exp with
      | Some (_, w) -> w
      | None ->
          exit_err
            (Printf.sprintf
               "unknown workload %S; one of: cluster closed-loop %s" exp
               (String.concat ", " (List.map fst app_table)))
    in
    let m =
      Capture.(
        with_capture ~metrics:true ~interval_ns:(interval_us *. 1e3) (fun () ->
            measure workload))
    in
    let telemetry = m.telemetry in
    let firings =
      if alert_rules = [] then [] else M.firings ~rules:alert_rules telemetry
    in
    let fired_key key =
      List.exists
        (fun (f : M.firing) -> f.M.rule.M.acat ^ "/" ^ f.M.rule.M.aname = key)
        firings
    in
    let snaps = telemetry.M.snapshots in
    let n = List.length snaps in
    Printf.printf "xc top: %s on %s — %d snapshot(s), one per %gus of sim time%s\n"
      exp (Xc_platforms.Config.name config) n interval_us
      (if telemetry.M.snap_dropped > 0 then
         Printf.sprintf " (%d older dropped beyond retention)"
           telemetry.M.snap_dropped
       else "");
    if snaps = [] then
      print_string
        "(no snapshots: the workload never advanced the sim clock across an \
         interval boundary)\n"
    else begin
      print_newline ();
      (* A time-lapse: [rows] snapshots evenly spaced over the whole run,
         always including the last. *)
      let spaced =
        if n <= rows then snaps
        else List.init rows (fun k -> List.nth snaps (((k + 1) * n / rows) - 1))
      in
      List.iter
        (fun (s : M.snapshot) ->
          let gauges =
            List.filter_map
              (fun (k, v) ->
                match v with
                | M.Level x -> Some (Printf.sprintf "%s=%g" k x)
                | _ -> None)
              s.M.values
          in
          Printf.printf "snapshot @%11.3fms  %s\n" (s.M.at /. 1e6)
            (String.concat "  " gauges))
        spaced;
      let win = last_n 33 snaps in
      let latest = List.nth snaps (n - 1) in
      (* Derivative view: a counter's per-second rate over its last
         [w] snapshot intervals, measured against the sim clock (the
         actual [at] gap, not the nominal cadence — the last interval
         can be short when the run ends mid-interval). *)
      let counter_rate key =
        match rate with
        | None -> None
        | Some w ->
            let base = List.nth snaps (Stdlib.max 0 (n - 1 - w)) in
            let value_at (s : M.snapshot) =
              match List.assoc_opt key s.M.values with
              | Some (M.Count x) -> x
              | _ -> 0.
            in
            let dt_s = (latest.M.at -. base.M.at) /. 1e9 in
            if dt_s <= 0. then Some 0.
            else Some ((value_at latest -. value_at base) /. dt_s)
      in
      Printf.printf "\n  %-30s %-8s %14s  per-interval (last %d)%s\n" "metric"
        "kind" "last" (List.length win)
        (match rate with
        | Some w ->
            Printf.sprintf "  [counters: rate over last %d interval(s)]" w
        | None -> "");
      List.iter
        (fun (key, sample) ->
          let extract v =
            match v with
            | M.Count x -> x
            | M.Level x -> x
            | M.Dist d -> d.M.p99
          in
          let raw =
            List.map
              (fun (s : M.snapshot) ->
                match List.assoc_opt key s.M.values with
                | Some v -> extract v
                | None -> 0.)
              win
          in
          (* Counters are cumulative: sparkline their per-interval delta. *)
          let series =
            match sample with
            | M.Count _ -> (
                match raw with
                | [] -> []
                | first :: _ ->
                    let prev = ref first in
                    List.map
                      (fun v ->
                        let d = v -. !prev in
                        prev := v;
                        Float.max 0. d)
                      raw)
            | _ -> raw
          in
          let kind, lastv =
            match (sample, counter_rate key) with
            | M.Count _, Some r -> ("rate/s", r)
            | M.Count x, _ -> ("counter", x)
            | (M.Level x, _) -> ("gauge", x)
            | (M.Dist d, _) -> ("p99-ns", d.M.p99)
          in
          Printf.printf "  %-30s %-8s %14.1f  |%s|%s\n" key kind lastv
            (sparkline series)
            (if fired_key key then " !" else ""))
        latest.M.values
    end;
    if alert_rules <> [] then begin
      print_newline ();
      if firings = [] then print_string "(no alerts fired)\n"
      else print_string (M.render_firings firings)
    end;
    Option.iter
      (fun path ->
        Printf.printf "\nwrote %s (%d snapshots)\n" path
          (Capture.write_timeseries ~path [ (exp ^ "/telemetry", m) ]))
      timeseries
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Run a workload with sim-clock metric snapshots on and show \
             the registry like top(1): last snapshots, then every metric \
             with a per-interval sparkline.")
    Term.(const run $ exp_arg $ runtime $ cloud $ interval $ rows $ timeseries
          $ rate $ jobs $ alert)

(* ---------------- xc cluster ---------------- *)

let cluster_cmd =
  let fidelity_arg =
    Arg.(value & opt string "exact"
        & info [ "fidelity"; "f" ] ~docv:"TIER"
            ~doc:"Fidelity tier: exact (every request through the \
                  event-driven dispatcher), fluid (the closed loop solved \
                  analytically via MVA — means only), or mixed (fluid bulk \
                  plus a seeded exact slice for the tail).")
  in
  let sample_rate =
    Term.(
      const (Option.map (positive "sample-rate"))
      $ Arg.(value & opt (some int) None
            & info [ "sample-rate" ] ~docv:"N"
                ~doc:"Mixed tier only: 1 in N containers runs through the \
                      exact slice (default 100)."))
  in
  let nodes =
    Term.(
      const (positive "nodes")
      $ Arg.(value & opt int 1
            & info [ "nodes" ] ~docv:"N"
                ~doc:"Independent nodes to simulate; node i derives its \
                      seed from the base seed + i."))
  in
  let run fidelity sample_rate nodes containers connections runtime cloud
      tail_cut timeseries jobs =
    let fidelity =
      match (String.lowercase_ascii fidelity, sample_rate) with
      | "exact", None -> CS.Exact
      | "fluid", None -> CS.Fluid
      | "mixed", rate -> CS.Mixed { sample_rate = Option.value ~default:100 rate }
      | ("exact" | "fluid"), Some _ ->
          exit_err "--sample-rate only applies to --fidelity mixed"
      | other, _ ->
          exit_err
            (Printf.sprintf
               "--fidelity expects exact, fluid or mixed, got %S" other)
    in
    (match (fidelity, tail_cut) with
    | CS.Fluid, Some _ ->
        exit_err
          "--tail needs per-request machinery: use --fidelity exact or mixed"
    | _ -> ());
    let config = Xc_platforms.Config.make ~cloud runtime in
    let platform = Xc_platforms.Platform.create config in
    (* Price every node's config before enabling tracing/metrics: the
       platform cost queries emit spans themselves, and they must not
       pollute the capture (same contract as config_of_platform's doc). *)
    let base = CS.config_of_platform ~containers ~connections platform in
    let configs =
      List.init nodes (fun i -> { base with CS.seed = base.CS.seed + i })
    in
    let m =
      Capture.(
        with_capture ~trace:(tail_cut <> None) ~capacity:(1 lsl 18)
          ~metrics:(timeseries <> None) (fun () ->
            measure (fun () -> CS.run_sweep ~jobs ~fidelity configs)))
    in
    let results = m.value in
    let tier_name =
      match fidelity with
      | CS.Exact -> "exact"
      | CS.Fluid -> "fluid"
      | CS.Mixed { sample_rate } -> Printf.sprintf "mixed(1/%d)" sample_rate
    in
    Printf.printf
      "xc cluster: %s, %s tier — %d node(s) x %d container(s) x %d \
       connection(s) (%d containers total)\n\n"
      (Xc_platforms.Config.name config)
      tier_name nodes containers connections (nodes * containers);
    let fmt_p99 v =
      if Float.is_nan v then "-" else Printf.sprintf "%.0fus" (v /. 1e3)
    in
    if nodes <= 8 then begin
      let t =
        Xc_sim.Table.create
          [
            ("node", Xc_sim.Table.Right);
            ("req/s", Xc_sim.Table.Right);
            ("mean", Xc_sim.Table.Right);
            ("p99", Xc_sim.Table.Right);
            ("busy", Xc_sim.Table.Right);
            ("cont-switches", Xc_sim.Table.Right);
          ]
      in
      List.iteri
        (fun i (r : CS.result) ->
          Xc_sim.Table.add_row t
            [
              string_of_int i;
              Xc_sim.Table.fmt_si r.throughput_rps;
              Printf.sprintf "%.0fus" (r.mean_latency_ns /. 1e3);
              fmt_p99 r.p99_latency_ns;
              Printf.sprintf "%.0f%%" (100. *. r.busy_fraction);
              string_of_int r.container_switches;
            ])
        results;
      Xc_sim.Table.print t
    end;
    let n = float_of_int (List.length results) in
    let sum f = List.fold_left (fun a r -> a +. f r) 0. results in
    let total_rps = sum (fun (r : CS.result) -> r.throughput_rps) in
    let mean_lat = sum (fun (r : CS.result) -> r.mean_latency_ns) /. n in
    let mean_busy = sum (fun (r : CS.result) -> r.busy_fraction) /. n in
    (* Float.max propagates NaN, so seed the fold only from nodes that
       actually measured a tail (fluid ones report NaN). *)
    let worst_p99 =
      List.fold_left
        (fun a (r : CS.result) ->
          if Float.is_nan r.p99_latency_ns then a
          else if Float.is_nan a then r.p99_latency_ns
          else Float.max a r.p99_latency_ns)
        Float.nan results
    in
    Printf.printf
      "\ntotal: %s req/s   mean latency %.0fus   worst p99 %s   mean busy \
       %.0f%%\n"
      (Xc_sim.Table.fmt_si total_rps)
      (mean_lat /. 1e3) (fmt_p99 worst_p99) (100. *. mean_busy);
    Option.iter
      (fun (pct, tails_out) ->
        print_newline ();
        let label = Printf.sprintf "cluster/%s" (Xc_platforms.Config.name config) in
        match Xc_trace.Profile.(tail_at ~label ~pct (attribute m.trace.events)) with
        | None ->
            print_string
              "(no request spans in trace; the exact slice produced no \
               measured requests)\n"
        | Some t ->
            print_string (Xc_trace.Profile.render_tail ~slowest:0 t);
            Option.iter
              (fun path ->
                Xc_trace.Export.tails_to_file ~path [ t ];
                Printf.printf "wrote %s\n" path)
              tails_out)
      tail_cut;
    Option.iter
      (fun path ->
        Printf.printf "\nwrote %s (%d snapshots)\n" path
          (Capture.write_timeseries ~path [ ("cluster/telemetry", m) ]))
      timeseries
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Simulate a multi-node container cluster at a chosen fidelity \
             tier: exact event-driven, fluid analytic (MVA), or mixed — \
             fluid bulk with a seeded exact slice for tail attribution.")
    Term.(const run $ fidelity_arg $ sample_rate $ nodes $ containers
          $ connections 5 $ runtime $ cloud $ tail_cut $ timeseries $ jobs)

(* ---------------- xc causal ---------------- *)

(* Causal what-if profiling: predicted (from the traced baseline's
   attribution) vs actually-rerun virtual speedups over the cluster
   simulation.  The shared flags price one cluster target per runtime;
   pricing happens before tracing is enabled (the platform cost
   queries emit spans themselves). *)
module Mechanism = Xc_trace.Mechanism

let causal_mech_doc =
  Printf.sprintf "Mechanism to scale: %s."
    (String.concat ", " (List.map Mechanism.to_string Mechanism.all))

(* Parsed in the command body, not by a Cmdliner converter: a bad
   --mech or --scale must exit 1 with a named error. *)
let whatif_or_exit mech scale =
  match Xc_obs.Whatif.make ~mech ~scale with Ok w -> w | Error e -> exit_err e

(* The cluster target every causal command runs, priced per runtime:
   the validated shared flags in, a function of the runtime out. *)
let causal_target =
  let duration_ms =
    Arg.(value & opt float 100.
        & info [ "duration-ms" ] ~docv:"MS"
            ~doc:"Measured window in simulated milliseconds.")
  in
  let warmup_ms =
    Arg.(value & opt float 20.
        & info [ "warmup-ms" ] ~docv:"MS" ~doc:"Warmup before the window.")
  in
  let seed =
    Arg.(value & opt (some int) None
        & info [ "seed" ] ~doc:"PRNG seed (default: the platform config's).")
  in
  let make cloud containers connections duration_ms warmup_ms seed =
    if (not (Float.is_finite duration_ms)) || duration_ms <= 0. then
      exit_err
        (Printf.sprintf
           "--duration-ms expects a positive number of sim-milliseconds, got %g"
           duration_ms);
    if
      (not (Float.is_finite warmup_ms)) || warmup_ms < 0. || warmup_ms >= duration_ms
    then
      exit_err
        (Printf.sprintf "--warmup-ms expects 0 <= W < duration, got %g" warmup_ms);
    fun runtime ->
      let config = Xc_platforms.Config.make ~cloud runtime in
      let platform = Xc_platforms.Platform.create config in
      let base =
        {
          (CS.config_of_platform ~containers ~connections platform) with
          CS.duration_ns = duration_ms *. 1e6;
          warmup_ns = warmup_ms *. 1e6;
        }
      in
      {
        Xc_obs.Causal.label =
          Printf.sprintf "%s/c%d" (Xc_suite.Spec.runtime_to_string runtime)
            connections;
        config = (match seed with None -> base | Some s -> { base with CS.seed = s });
      }
  in
  Term.(
    const make $ cloud $ containers $ connections 1 $ duration_ms $ warmup_ms
    $ seed)

let causal_run_cmd =
  let mech =
    Arg.(value & opt string Mechanism.(to_string Syscall_entry)
        & info [ "mech"; "m" ] ~docv:"MECH" ~doc:causal_mech_doc)
  in
  let scale =
    Arg.(value & opt float 0.7
        & info [ "scale"; "s" ] ~docv:"S"
            ~doc:"Cost multiplier in [0, 10]: 0.7 asks \"what if this \
                  mechanism were 30% cheaper\".")
  in
  let run target runtime mech scale =
    let w = whatif_or_exit mech scale in
    let target = target runtime in
    match Xc_obs.Causal.run_point target w with
    | Error e -> exit_err e
    | Ok (b, pt) ->
        print_string (Xc_obs.Causal.render_baseline ~label:target.Xc_obs.Causal.label b);
        print_newline ();
        print_string (Xc_obs.Causal.render_points [ pt ])
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"One what-if point: traced baseline, critical-path shares, and \
             the predicted vs actually-rerun speedup.")
    Term.(const run $ causal_target $ runtime $ mech $ scale)

let causal_sweep_cmd =
  let runtimes =
    Arg.(value & opt_all runtime_conv [] runtime_info)
  in
  let mechs =
    Arg.(value & opt_all string []
        & info [ "mech"; "m" ] ~docv:"MECH"
            ~doc:(causal_mech_doc
                 ^ "  Repeatable; default syscall-entry, syscall-work, \
                    ctx-switch."))
  in
  let scales =
    Arg.(value & opt_all float []
        & info [ "scale"; "s" ] ~docv:"S"
            ~doc:"Cost multiplier to sweep (repeatable; default 0.7).")
  in
  let run target runtimes mechs scales csv_out jobs =
    let runtimes =
      if runtimes <> [] then runtimes
      else [ Xc_platforms.Config.Docker; Xc_platforms.Config.X_container ]
    in
    let mechs =
      if mechs <> [] then mechs
      else
        List.map Mechanism.to_string
          Mechanism.[ Syscall_entry; Syscall_work; Ctx_switch ]
    in
    let scales = if scales <> [] then scales else [ 0.7 ] in
    let whatifs =
      List.concat_map (fun mech -> List.map (whatif_or_exit mech) scales) mechs
    in
    let targets = List.map target runtimes in
    match Xc_obs.Causal.sweep ~jobs ~targets ~whatifs () with
    | Error e -> exit_err e
    | Ok (baselines, points) ->
        List.iter
          (fun (label, b) ->
            print_string (Xc_obs.Causal.render_baseline ~label b);
            print_newline ())
          baselines;
        print_string (Xc_obs.Causal.render_points points);
        Option.iter
          (fun path ->
            write_file path (Xc_obs.Causal.points_csv points);
            Printf.eprintf "[xc causal] wrote %s (%d point(s))\n%!" path
              (List.length points))
          csv_out
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"The full what-if grid: one traced baseline per runtime (a \
             repeatable --runtime; default docker and x-container), one \
             re-priced rerun per (runtime x mechanism x scale), predicted \
             vs rerun side by side — byte-identical at any --jobs.")
    Term.(const run $ causal_target $ runtimes $ mechs $ scales $ csv $ jobs)

let causal_explain_cmd =
  let run target runtime slowest =
    if slowest < 0 then
      exit_err
        (Printf.sprintf "--slowest expects a non-negative integer, got %d" slowest);
    let module CP = Xc_obs.Critical_path in
    let target = target runtime in
    let m =
      Capture.(
        with_capture ~trace:true ~capacity:(1 lsl 18) (fun () ->
            measure (fun () -> CS.run target.Xc_obs.Causal.config)))
    in
    let cp = CP.extract m.trace.events in
    let summary = CP.summarize cp in
    Printf.printf "%s: %.0f req/s, mean %.0fus, p99 %.0fus\n\n"
      target.Xc_obs.Causal.label m.value.CS.throughput_rps
      (m.value.CS.mean_latency_ns /. 1e3)
      (m.value.CS.p99_latency_ns /. 1e3);
    print_string (CP.render summary);
    let rec take k = function
      | c :: rest when k > 0 -> c :: take (k - 1) rest
      | _ -> []
    in
    List.iter
      (fun chain ->
        print_newline ();
        print_string (CP.render_chain chain))
      (take slowest cp.CP.chains)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Traced critical-path extraction only: the aggregate blame \
             shares plus the slowest requests' full chains (each chain's \
             segments telescope exactly to the request's duration).")
    Term.(const run $ causal_target $ runtime $ slowest 3)

let causal_cmd =
  Cmd.group
    (Cmd.info "causal"
       ~doc:"Causal what-if profiler: critical-path extraction over the \
             traced cluster sim, plus virtual-speedup experiments — \
             predictions from attribution validated against actually \
             re-priced reruns.")
    [ causal_run_cmd; causal_sweep_cmd; causal_explain_cmd ]

(* ---------------- xc lb ---------------- *)

(* --policy spellings: the Policy kinds plus "subcluster", the
   uniformly-random sub-cluster dispatch the Oracle solves exactly. *)
let lb_policy_names =
  "subcluster, "
  ^ String.concat ", " (List.map Xc_lb.Policy.kind_to_string Xc_lb.Policy.all_kinds)

let lb_dispatch_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "subcluster" | "sub-cluster" -> Xc_lb.Hedge.Subcluster
  | other -> (
      match Xc_lb.Policy.kind_of_string other with
      | Ok k -> Xc_lb.Hedge.Policy k
      | Error _ ->
          exit_err
            (Printf.sprintf "--policy expects one of %s, got %S" lb_policy_names
               s))

let lb_dispatch_name = function
  | Xc_lb.Hedge.Subcluster -> "subcluster"
  | Xc_lb.Hedge.Policy k -> Xc_lb.Policy.kind_to_string k

let lb_parse_utilizations s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then
    exit_err
      (Printf.sprintf "--utilizations expects a comma list like 0.3,0.5,0.7, got %S" s);
  List.map
    (fun p ->
      match float_of_string_opt p with
      | Some u when u > 0. && u < 1. ->
          u
      | _ ->
          exit_err
            (Printf.sprintf
               "--utilizations expects per-backend loads in (0, 1), got %S" p))
    parts

let lb_sweep_cmd =
  let policy =
    Arg.(value & opt string "subcluster"
        & info [ "policy"; "p" ] ~docv:"POLICY"
            ~doc:"Clone-set dispatch: subcluster (the Oracle-exact random \
                  sub-cluster reference), round-robin, least-loaded, po2c \
                  or jsq.")
  in
  let clones =
    Arg.(value & opt int 1
        & info [ "clones"; "d" ] ~docv:"D"
            ~doc:"Clone factor: each request runs on D distinct backends \
                  with synchronized service and cancel-on-first-complete \
                  (1 = no hedging).")
  in
  let backends =
    Arg.(value & opt int 6
        & info [ "backends"; "n" ] ~docv:"N" ~doc:"PS backends in the cluster.")
  in
  let utilizations =
    Arg.(value & opt string "0.3,0.5,0.7"
        & info [ "utilizations"; "u" ] ~docv:"LIST"
            ~doc:"Comma list of per-backend utilizations (clones included) \
                  to sweep.")
  in
  let duration_ms =
    Arg.(value & opt float 3000.
        & info [ "duration" ] ~docv:"MS"
            ~doc:"Measured arrival window in simulated milliseconds.")
  in
  let seed = Arg.(value & opt int 17 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run policy clones backends utilizations duration_ms seed =
    let dispatch = lb_dispatch_of_string policy in
    if backends < 1 then
      exit_err
        (Printf.sprintf "--backends expects a positive integer, got %d" backends);
    if clones < 1 || clones > backends then
      exit_err
        (Printf.sprintf
           "--clones expects 1 <= D <= backends (%d), got %d" backends clones);
    (match dispatch with
    | Xc_lb.Hedge.Subcluster when backends mod clones <> 0 ->
        exit_err
          (Printf.sprintf
             "subcluster dispatch needs --clones to divide --backends, got %d \
              and %d"
             clones backends)
    | _ -> ());
    if (not (Float.is_finite duration_ms)) || duration_ms <= 0. then
      exit_err
        (Printf.sprintf
           "--duration expects a positive number of sim-milliseconds, got %g"
           duration_ms);
    let utils = lb_parse_utilizations utilizations in
    let module T = Xc_sim.Table in
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "M/PS cloning sweep: %d backends, policy %s, d=%d (%gms window)"
             backends (lb_dispatch_name dispatch) clones duration_ms)
        [
          ("util", T.Right);
          ("completed", T.Right);
          ("sim mean", T.Right);
          ("oracle mean", T.Right);
          ("delta", T.Right);
          ("p99", T.Right);
          ("hedge share", T.Right);
        ]
    in
    List.iter
      (fun u ->
        let cfg =
          Xc_lb.Hedge.config_for_utilization ~backends ~clones ~dispatch ~seed
            ~duration_ns:(duration_ms *. 1e6) ~utilization:u ()
        in
        let r = Xc_lb.Hedge.run cfg in
        (* The closed form needs the sub-cluster tiling; it is exact for
           subcluster dispatch and a reference line for the policies. *)
        let oracle =
          if backends mod clones = 0 then
            Some
              (Xc_lb.Oracle.cloned_mean_ns ~backends ~clones
                 ~arrival_rate_per_ns:cfg.Xc_lb.Hedge.arrival_rate_per_ns
                 ~service_mean_ns:cfg.Xc_lb.Hedge.service_mean_ns)
          else None
        in
        let hedge_share =
          if r.Xc_lb.Hedge.busy_ns > 0. then
            r.Xc_lb.Hedge.cancelled_work_ns /. r.Xc_lb.Hedge.busy_ns
          else 0.
        in
        T.add_row t
          [
            Printf.sprintf "%.2f" u;
            string_of_int r.Xc_lb.Hedge.completed;
            Printf.sprintf "%.1fus" (r.Xc_lb.Hedge.mean_ns /. 1e3);
            (match oracle with
            | Some o -> Printf.sprintf "%.1fus" (o /. 1e3)
            | None -> "-");
            (match oracle with
            | Some o ->
                Printf.sprintf "%+.1f%%" ((r.Xc_lb.Hedge.mean_ns -. o) /. o *. 100.)
            | None -> "-");
            Printf.sprintf "%.1fus" (r.Xc_lb.Hedge.p99_ns /. 1e3);
            Printf.sprintf "%.1f%%" (hedge_share *. 100.);
          ])
      utils;
    T.print t;
    if dispatch <> Xc_lb.Hedge.Subcluster then
      print_string
        "(oracle column is the random-subcluster closed form — exact only \
         for --policy subcluster; the delta shows what the policy buys.)\n"
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep the PS cloning simulator over utilizations and compare \
             against the analytic M/PS oracle.")
    Term.(const run $ policy $ clones $ backends $ utilizations $ duration_ms
          $ seed)

let lb_tail_cmd =
  let policy =
    Arg.(value & opt (some string) None
        & info [ "policy"; "p" ] ~docv:"POLICY"
            ~doc:"Run only this policy (round-robin, least-loaded, po2c, \
                  jsq); default compares all four.")
  in
  let clones =
    Arg.(value & opt (some int) None
        & info [ "clones"; "d" ] ~docv:"D"
            ~doc:"Run only this clone factor; default compares 1 and 2.")
  in
  let run runtime cloud containers connections policy clones pct jobs =
    let kinds =
      match policy with
      | None -> Xc_lb.Policy.all_kinds
      | Some s -> (
          match lb_dispatch_of_string s with
          | Xc_lb.Hedge.Policy k -> [ k ]
          | Xc_lb.Hedge.Subcluster ->
              exit_err
                "subcluster is the PS-oracle reference dispatch; the cluster \
                 driver routes with a policy (round-robin, least-loaded, \
                 po2c, jsq)")
    in
    let clone_grid =
      match clones with
      | None -> List.filter (fun d -> d <= containers) [ 1; 2 ]
      | Some d when d >= 1 && d <= containers -> [ d ]
      | Some d ->
          exit_err
            (Printf.sprintf
               "--clones expects 1 <= D <= containers (%d), got %d" containers d)
    in
    (* Price the platform into the base config before any tracing — the
       cost queries emit spans.  The lb field never touches pricing, so
       every combo shares the base. *)
    let config = Xc_platforms.Config.make ~cloud runtime in
    let platform = Xc_platforms.Platform.create config in
    let base =
      Xc_platforms.Cluster_sim.config_of_platform ~containers ~connections
        platform
    in
    let combos =
      List.concat_map
        (fun k -> List.map (fun d -> (k, d)) clone_grid)
        kinds
    in
    let configs =
      base
      :: List.map
           (fun (k, d) ->
             { base with
               Xc_platforms.Cluster_sim.lb =
                 Some { Xc_lb.Policy.kind = k; clones = d };
             })
           combos
    in
    let results = Xc_platforms.Cluster_sim.run_sweep ~jobs configs in
    let baseline, combo_results =
      match results with r :: rest -> (r, rest) | [] -> assert false
    in
    let module T = Xc_sim.Table in
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Fig 9 queueing tail vs policy/clones: %s, %d containers x %d \
              connections"
             (Xc_platforms.Config.name config) containers connections)
        [
          ("policy", T.Left);
          ("clones", T.Right);
          ("p99", T.Right);
          ("vs baseline", T.Right);
          ("mean", T.Right);
          ("req/s", T.Right);
        ]
    in
    let row name d (r : Xc_platforms.Cluster_sim.result) =
      T.add_row t
        [
          name;
          (if d = 0 then "-" else string_of_int d);
          Printf.sprintf "%.0fus" (r.Xc_platforms.Cluster_sim.p99_latency_ns /. 1e3);
          (if d = 0 then "-"
           else
             Printf.sprintf "%+.1f%%"
               ((r.Xc_platforms.Cluster_sim.p99_latency_ns
                -. baseline.Xc_platforms.Cluster_sim.p99_latency_ns)
               /. baseline.Xc_platforms.Cluster_sim.p99_latency_ns *. 100.));
          Printf.sprintf "%.0fus"
            (r.Xc_platforms.Cluster_sim.mean_latency_ns /. 1e3);
          Printf.sprintf "%.0f" r.Xc_platforms.Cluster_sim.throughput_rps;
        ]
    in
    row "home-pinned (baseline)" 0 baseline;
    List.iter2 (fun (k, d) r -> row (Xc_lb.Policy.kind_to_string k) d r)
      combos combo_results;
    T.print t;
    (* Winner = lowest p99; trace baseline vs winner and attribute the
       gap to mechanisms, the same machinery as `xc trace tails`. *)
    let (wk, wd), wr =
      match List.combine combos combo_results with
      | [] -> assert false
      | first :: rest ->
          List.fold_left
            (fun ((_, br) as best) ((_, r) as cand) ->
              if
                r.Xc_platforms.Cluster_sim.p99_latency_ns
                < br.Xc_platforms.Cluster_sim.p99_latency_ns
              then cand
              else best)
            first rest
    in
    Printf.printf
      "\nwinner: %s d=%d — p99 %.0fus vs baseline %.0fus (%+.1f%%)\n\n"
      (Xc_lb.Policy.kind_to_string wk)
      wd
      (wr.Xc_platforms.Cluster_sim.p99_latency_ns /. 1e3)
      (baseline.Xc_platforms.Cluster_sim.p99_latency_ns /. 1e3)
      ((wr.Xc_platforms.Cluster_sim.p99_latency_ns
       -. baseline.Xc_platforms.Cluster_sim.p99_latency_ns)
      /. baseline.Xc_platforms.Cluster_sim.p99_latency_ns *. 100.);
    let traced label cs = fst (cluster_tail ~jobs ~pct ~label cs) in
    let name = Xc_platforms.Config.name config in
    let ta = traced ("cluster/" ^ name) base in
    let tb =
      traced
        (Printf.sprintf "cluster/%s+%s-x%d" name
           (Xc_lb.Policy.kind_to_string wk) wd)
        { base with
          Xc_platforms.Cluster_sim.lb = Some { Xc_lb.Policy.kind = wk; clones = wd };
        }
    in
    print_string (Xc_trace.Diff.render_tails ~a:ta ~b:tb)
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:"Race the hedging policy/clone grid against the home-pinned \
             Fig 9 cluster baseline and attribute the winning tail delta \
             to mechanisms.")
    Term.(const run $ runtime $ cloud $ containers $ connections 5 $ policy
          $ clones $ tail_or_p99 $ jobs)

let lb_cmd =
  Cmd.group
    (Cmd.info "lb"
       ~doc:"Load-balancing policies and request hedging: the PS cloning \
             sweep against the analytic oracle, and the Fig 9 \
             queueing-tail policy race.")
    [ lb_sweep_cmd; lb_tail_cmd ]

(* ---------------- xc bench ---------------- *)

let bench_check_cmd =
  let current =
    Arg.(value & opt string "BENCH_sim.json"
        & info [ "current" ] ~docv:"FILE"
            ~doc:"Artifact of the run under test (written by every bench \
                  invocation).")
  in
  let baseline =
    Arg.(value & opt string "bench/BENCH_baseline.json"
        & info [ "baseline" ] ~docv:"FILE"
            ~doc:"Committed baseline artifact to compare against (see \
                  docs/PERF.md for how to refresh it).")
  in
  let threshold =
    Arg.(value & opt float Xc_sim.Bench_json.default_threshold_pct
        & info [ "threshold" ] ~docv:"PCT"
            ~doc:"Regression budget in percent, applied to events/sec \
                  (drop) and total wall-clock (rise).")
  in
  let run current baseline threshold_pct =
    match (Xc_sim.Bench_json.of_file baseline, Xc_sim.Bench_json.of_file current) with
    | Error e, _ | _, Error e -> exit_err e
    | Ok b, Ok c ->
        let verdicts =
          Xc_sim.Bench_json.check ~threshold_pct ~baseline:b ~current:c ()
        in
        print_string
          (Xc_sim.Bench_json.render ~threshold_pct ~baseline:b ~current:c
             verdicts);
        if Xc_sim.Bench_json.regressed verdicts then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Compare the current BENCH_sim.json against the committed \
             baseline; exit nonzero on a regression beyond the threshold.")
    Term.(const run $ current $ baseline $ threshold)

(* ---------------- xc bench scale ---------------- *)

let bench_scale_cmd =
  let max_jobs =
    Arg.(value & opt int 4
        & info [ "max-jobs" ] ~docv:"N"
            ~doc:"Highest job count to measure (the table runs 1..N).")
  in
  let duration_ms =
    Arg.(value & opt float 40.
        & info [ "duration" ] ~docv:"MS"
            ~doc:"Simulated duration per sweep point, in ms.")
  in
  let run max_jobs duration_ms counts =
    if max_jobs < 1 then
      exit_err
        (Printf.sprintf "--max-jobs expects a positive integer, got %d" max_jobs);
    let point mode n =
      {
        (CS.default_config mode ~containers:n) with
        duration_ns = duration_ms *. 1e6;
        warmup_ns = duration_ms *. 1e5;
        client_rtt_ns = 1e6;
      }
    in
    let configs =
      List.concat_map (fun n -> [ point CS.Flat n; point CS.Hierarchical n ]) counts
    in
    Printf.printf
      "cluster sweep, %d shard(s), host parallelism %d (requests above it run \
       capped)\n\n"
      (List.length configs)
      (Xc_sim.Parallel.recommended_jobs ());
    let t =
      Xc_sim.Table.create
        [
          ("jobs", Xc_sim.Table.Right);
          ("wall", Xc_sim.Table.Right);
          ("speedup", Xc_sim.Table.Right);
          ("efficiency", Xc_sim.Table.Right);
        ]
    in
    let reference = ref None in
    let t1 = ref 0. in
    let identical = ref true in
    for jobs = 1 to max_jobs do
      let t0 = Unix.gettimeofday () in
      let results = CS.run_sweep ~jobs configs in
      let wall = Unix.gettimeofday () -. t0 in
      (match !reference with
      | None ->
          reference := Some results;
          t1 := wall
      | Some r -> if results <> r then identical := false);
      let speedup = if wall > 0. then !t1 /. wall else 1. in
      Xc_sim.Table.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.3fs" wall;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.0f%%" (100. *. speedup /. float_of_int jobs);
        ]
    done;
    Xc_sim.Table.print t;
    Printf.printf "\nresults identical across job counts: %s\n"
      (if !identical then "yes" else "NO");
    if not !identical then exit 1
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Run the sharded cluster sweep at --jobs 1..N and print the \
             speedup-per-jobs table; exits nonzero if any job count \
             changes a result.")
    Term.(const run $ max_jobs $ duration_ms $ container_counts [ 8; 16 ])

(* ---------------- xc bench history ---------------- *)

let history_arg =
  Arg.(value & opt string "bench/HISTORY.jsonl"
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Append-only JSONL trajectory, one line per bench run.")

let bench_history_append_cmd =
  let bench =
    Arg.(value & opt string "BENCH_sim.json"
        & info [ "bench" ] ~docv:"FILE"
            ~doc:"Artifact to fold into the history (written by every \
                  bench invocation).")
  in
  let run bench history =
    match Xc_sim.Bench_history.append ~history ~bench with
    | Error e -> exit_err e
    | Ok entry ->
        let s = entry.Xc_sim.Bench_history.summary in
        Printf.printf
          "appended %s (jobs %d, %.1f ev/s, %d experiment(s)) to %s\n"
          s.Xc_sim.Bench_json.git s.Xc_sim.Bench_json.jobs
          s.Xc_sim.Bench_json.events_per_sec
          (List.length entry.Xc_sim.Bench_history.experiments)
          history
  in
  Cmd.v
    (Cmd.info "append"
       ~doc:"Fold the current BENCH_sim.json into the trajectory history.")
    Term.(const run $ bench $ history_arg)

let bench_history_check_cmd =
  let current =
    Arg.(value & opt string "BENCH_sim.json"
        & info [ "current" ] ~docv:"FILE"
            ~doc:"Artifact of the run under test.")
  in
  let window =
    Arg.(value & opt int Xc_sim.Bench_history.default_window
        & info [ "window" ] ~docv:"K"
            ~doc:"Trailing history entries to average into the baseline.")
  in
  let threshold =
    Arg.(value & opt float Xc_sim.Bench_json.default_threshold_pct
        & info [ "threshold" ] ~docv:"PCT"
            ~doc:"Drift budget in percent against the trailing-window mean.")
  in
  let run current history window threshold_pct =
    if window < 1 then
      exit_err
        (Printf.sprintf "--window expects a positive integer, got %d" window);
    match
      ( Xc_sim.Bench_history.of_file history,
        Xc_sim.Bench_json.of_file current )
    with
    | Error e, _ | _, Error e -> exit_err e
    | Ok entries, Ok cur -> (
        match
          Xc_sim.Bench_history.check ~threshold_pct ~window entries cur
        with
        | Error e -> exit_err e
        | Ok (report, regressed) ->
            print_string report;
            if regressed then exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Compare the current run against the mean of the trailing \
             window of the history; exit nonzero on drift beyond the \
             threshold.")
    Term.(const run $ current $ history_arg $ window $ threshold)

let bench_history_plot_cmd =
  let experiment =
    Arg.(value & opt (some string) None
        & info [ "experiment"; "e" ] ~docv:"NAME"
            ~doc:"Restrict to one series (\"total\" or an experiment name).")
  in
  let run history experiment csv =
    match Xc_sim.Bench_history.of_file history with
    | Error e -> exit_err e
    | Ok [] -> exit_err (history ^ ": empty history — append a run first")
    | Ok entries -> (
        print_string (Xc_sim.Bench_history.plot ?experiment entries);
        Option.iter
          (fun path ->
            write_file path (Xc_sim.Bench_history.to_csv entries);
            Printf.printf "wrote %s\n" path)
          csv)
  in
  Cmd.v
    (Cmd.info "plot"
       ~doc:"Chart the events/sec and wall-clock trajectory across the \
             appended runs, per experiment and in total.")
    Term.(const run $ history_arg $ experiment $ csv)

let bench_history_cmd =
  Cmd.group
    (Cmd.info "history"
       ~doc:"Track the bench trajectory across commits: append runs, \
             chart them, and check drift against a trailing window.")
    [ bench_history_append_cmd; bench_history_check_cmd; bench_history_plot_cmd ]

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Operate on bench artifacts (run the bench itself with dune \
             exec bench/main.exe).")
    [ bench_check_cmd; bench_scale_cmd; bench_history_cmd ]

(* ---------------- suite ---------------- *)

module Suite = Xc_suite.Suite
module Suite_registry = Xc_suite.Registry
module Suite_driver = Xc_suite.Driver

(* A runnable suite: a [Registry.named] entry or a spec file on disk.
   Registry bench/smoke suites use bespoke kinds the generic driver
   does not interpret — running them here would silently produce
   different numbers than the bench, so point at the bench instead. *)
let resolve_runnable name =
  match Suite_registry.find_named name with
  | Some s -> Ok s
  | None ->
      if Sys.file_exists name then Suite.parse_file name
      else if
        Suite_registry.find_bench name <> None
        || Suite_registry.find_smoke name <> None
      then
        Error
          (Printf.sprintf
             "%S is a bench experiment suite; run it with the bench harness \
              (dune exec bench/main.exe -- %s)"
             name name)
      else
        Error
          (Printf.sprintf
             "unknown suite %S: expected a named suite (%s) or a spec file \
              path"
             name
             (String.concat " " Suite_registry.named_names))

let suite_name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME|FILE"
        ~doc:"A named suite or the path of a key=value spec file.")

let suite_list_cmd =
  let run () =
    print_endline "runnable named suites (xc suite run NAME):";
    List.iter
      (fun (name, (s : Suite.t)) ->
        Printf.printf "  %-16s %d experiment(s)\n" name (List.length s.Suite.specs))
      Suite_registry.named;
    print_endline "";
    print_endline
      "bench suites (declarative grids behind dune exec bench/main.exe -- NAME):";
    List.iter
      (fun (name, (s : Suite.t)) ->
        Printf.printf "  %-16s %d experiment(s)\n" name (List.length s.Suite.specs))
      Suite_registry.bench;
    print_endline "";
    print_endline "bench smoke variants:";
    List.iter
      (fun (name, (s : Suite.t)) ->
        Printf.printf "  %-16s %d experiment(s)\n" name (List.length s.Suite.specs))
      Suite_registry.smoke
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every registry suite and its experiment count.")
    Term.(const run $ const ())

let suite_show_cmd =
  let run name =
    match Suite_registry.spec_text name with
    | Some text -> print_string text
    | None -> (
        if not (Sys.file_exists name) then
          exit_err
            (Printf.sprintf
               "unknown suite %S: expected a registry suite or a spec file path"
               name)
        else
          match Suite.parse_file name with
          | Error e -> exit_err (name ^ ": " ^ e)
          | Ok s -> print_string (Suite.print s))
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a suite's canonical spec text (for a file: parse, \
             validate and reprint — the round-trip form).")
    Term.(const run $ suite_name_arg)

let suite_run_cmd =
  let run name jobs csv_out tails_out ts_out =
    match resolve_runnable name with
    | Error e -> exit_err e
    | Ok suite ->
        let wants_trace = Suite_driver.wants_trace suite in
        let wants_ts = Suite_driver.wants_timeseries suite in
        if tails_out <> None && not wants_trace then
          Printf.eprintf
            "[xc suite] warning: --tails given but no spec enables \
             trace/tails capture; the artifact will be empty\n%!";
        if ts_out <> None && not wants_ts then
          Printf.eprintf
            "[xc suite] warning: --timeseries given but no spec enables \
             timeseries capture; the artifact will be empty\n%!";
        let outcomes =
          Capture.with_capture ~trace:wants_trace
            ~sample:(Suite_driver.sample_stride suite) ~metrics:wants_ts
            ~interval_ns:(float_of_int (Suite_driver.interval_us suite) *. 1e3)
            (fun () -> Suite_driver.run_suite ~jobs suite)
        in
        let rows = List.map (fun (_, (o : _ Capture.measured)) -> o.value) outcomes in
        print_string
          (Suite_driver.render
             ~title:(Printf.sprintf "Suite: %s" suite.Suite.name)
             rows);
        Option.iter
          (fun path ->
            write_file path (Suite_driver.csv rows);
            Printf.eprintf "[xc suite] wrote %s\n%!" path)
          csv_out;
        (* The bench tails pipeline: one track per spec, p99 cut over
           request totals, per-mechanism partition — so a suite artifact
           is directly comparable with a bench one. *)
        Option.iter
          (fun path ->
            Printf.eprintf "[xc suite] wrote %s (%d request-emitting track(s))\n%!"
              path (Capture.write_tails ~path outcomes))
          tails_out;
        Option.iter
          (fun path ->
            ignore (Capture.write_timeseries ~path outcomes);
            Printf.eprintf "[xc suite] wrote %s\n%!" path)
          ts_out;
        Printf.eprintf "[xc suite] %d experiment(s), %d domain(s), %d events\n%!"
          (List.length outcomes) jobs
          (List.fold_left (fun a (_, (o : _ Capture.measured)) -> a + o.events) 0 outcomes)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a named suite or a spec file through the generic driver: \
             every experiment is one pool shard, output and artifacts are \
             byte-identical at any --jobs.")
    Term.(const run $ suite_name_arg $ jobs $ csv $ tails $ timeseries)

let suite_cmd =
  Cmd.group
    (Cmd.info "suite"
       ~doc:"Declarative experiment suites: list the registry, print \
             canonical spec text, run specs through the generic driver.")
    [ suite_list_cmd; suite_show_cmd; suite_run_cmd ]

(* ---------------- main ---------------- *)

let () =
  let info =
    Cmd.info "xc" ~version:"1.0.0"
      ~doc:"X-Containers (ASPLOS'19) reproduction playground."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            boot_cmd;
            abom_cmd;
            platforms_cmd;
            syscall_costs_cmd;
            profile_cmd;
            profiles_cmd;
            boot_times_cmd;
            migrate_cmd;
            clone_cmd;
            security_cmd;
            coldstart_cmd;
            build_binary_cmd;
            patch_binary_cmd;
            disasm_cmd;
            profile_binary_cmd;
            experiments_cmd;
            run_app_cmd;
            sweep_cmd;
            trace_cmd;
            top_cmd;
            cluster_cmd;
            causal_cmd;
            lb_cmd;
            suite_cmd;
            bench_cmd;
          ]))
