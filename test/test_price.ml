(* The pricing pin: every number the per-mechanism pricing path
   produces, rendered bit-exactly with [%h] and digested.  The grid is
   the full platform space — 9 runtimes x 3 clouds x patched/unpatched
   — crossed with the eleven workload recipes (service time plus
   mechanism rows) and the Fig 9 cluster config (per-stage CPU, stage
   mechanism rows, both switch prices).  The expected digest was taken
   before mechanism pricing moved into one module, so any change to a
   rounding anywhere on the path shows up here as a digest mismatch. *)

module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform
module CS = Xc_platforms.Cluster_sim
module Recipe = Xc_apps.Recipe
module Price = Xc_platforms.Price

let runtimes =
  Config.
    [
      Docker;
      Gvisor;
      Clear_container;
      Xen_container;
      X_container;
      Xen_hvm;
      Xen_pv;
      Unikernel;
      Graphene;
    ]

let clouds = Config.[ Amazon_ec2; Google_gce; Local_cluster ]

let configs =
  List.concat_map
    (fun runtime ->
      List.concat_map
        (fun cloud ->
          List.map
            (fun meltdown_patched -> Config.make ~cloud ~meltdown_patched runtime)
            [ true; false ])
        clouds)
    runtimes

let cloud_str = function
  | Config.Amazon_ec2 -> "ec2"
  | Config.Google_gce -> "gce"
  | Config.Local_cluster -> "local"

let render_rows b rows =
  List.iter
    (fun (r : Price.row) ->
      Printf.bprintf b "  %s/%s %h\n"
        (Xc_trace.Mechanism.to_string r.mech)
        r.name r.ns)
    rows

let render_config b (config : Config.t) =
  Printf.bprintf b "%s %s patched=%b\n"
    (Config.runtime_name config.Config.runtime)
    (cloud_str config.Config.cloud)
    config.Config.meltdown_patched;
  let platform = Platform.create config in
  List.iter
    (fun (w : Xc_suite.Workload.t) ->
      let r = w.Xc_suite.Workload.recipe in
      Printf.bprintf b " recipe %s service %h\n" w.Xc_suite.Workload.name
        (Recipe.service_ns platform r);
      render_rows b (Recipe.mechanisms platform r))
    Xc_suite.Workload.all;
  let c = CS.config_of_platform platform in
  Array.iteri
    (fun i ns ->
      Printf.bprintf b " stage %d cpu %h\n" i ns;
      render_rows b c.CS.request_mech.(i))
    c.CS.stage_cpu_ns;
  Printf.bprintf b " switch container %h process %h\n"
    (c.CS.container_switch_ns ~runnable:0)
    c.CS.process_switch_ns

let rendering () =
  let b = Buffer.create (1 lsl 16) in
  List.iter (render_config b) configs;
  Buffer.contents b

(* MD5 of [rendering ()] at the commit before the pricing refactor. *)
let pinned_digest = "d8e2ad439b486052c7f3de06eafb7825"

let test_pinned () =
  Alcotest.(check int) "54 platform configs" 54 (List.length configs);
  Alcotest.(check int) "11 workload recipes" 11
    (List.length Xc_suite.Workload.all);
  Alcotest.(check string) "pricing digest" pinned_digest
    (Digest.to_hex (Digest.string (rendering ())))

(* Why [Price] keeps two syscall-work roundings: on Docker's php-fpm
   stage, subtracting the entry cost once from the summed op prices
   (recipes) and subtracting it per op (cluster stages) disagree in the
   last bits — and committed references hash both. *)
let test_two_roundings () =
  let module K = Xc_os.Kernel in
  let rep n ops = List.concat (List.init n (fun _ -> ops)) in
  let php_fpm =
    rep 16 [ K.Stat_op; K.Open_op; K.File_read 4096; K.Cheap Close ]
    @ rep 8 [ K.Socket_send 512; K.Socket_recv 512 ]
  in
  let platform = Platform.create (Config.make Config.Docker) in
  let entry_ns = Platform.syscall_entry_ns platform in
  let recipe = Price.recipe_work_ns ~coverage:1. platform ~entry_ns php_fpm in
  let stage = Price.stage_work_ns platform ~entry_ns php_fpm in
  let priced =
    List.find
      (fun (r : Price.row) -> r.mech = Syscall_work)
      (CS.config_of_platform platform).CS.request_mech.(1)
  in
  Alcotest.(check string) "the stage rounding is the cluster's php-fpm row"
    (Printf.sprintf "%h" priced.ns) (Printf.sprintf "%h" stage);
  Alcotest.(check bool) "the two roundings differ" true (recipe <> stage);
  Alcotest.(check (float 1e-9)) "...only in the last bits" recipe stage

let suites =
  [
    ( "price",
      [
        Alcotest.test_case "pinned grid digest" `Quick test_pinned;
        Alcotest.test_case "two work roundings" `Quick test_two_roundings;
      ] );
  ]
