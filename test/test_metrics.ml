(* Tests for the global telemetry registry (Xc_sim.Metrics): typed
   emitters, sim-clock snapshotting by the engine, the retention bound,
   and the determinism contract — capture/inject must merge
   associatively enough that Parallel.run produces the same telemetry
   at any jobs count. *)

module M = Xc_sim.Metrics
module H = Xc_sim.Histogram
module E = Xc_sim.Engine

(* Handles for the metrics the tests emit. *)
let cpu_busy_ns = M.counter ~cat:"cpu" ~name:"busy-ns"
let cpu_e = M.counter ~cat:"cpu" ~name:"e"
let cpu_ev = M.counter ~cat:"cpu" ~name:"ev"
let cpu_inner = M.counter ~cat:"cpu" ~name:"inner"
let cpu_k = M.counter ~cat:"cpu" ~name:"k"
let cpu_k_gauge = M.gauge ~cat:"cpu" ~name:"k"
let cpu_outer = M.counter ~cat:"cpu" ~name:"outer"
let cpu_work = M.counter ~cat:"cpu" ~name:"work"
let cpu_x = M.counter ~cat:"cpu" ~name:"x"
let os_level = M.gauge ~cat:"os" ~name:"level"
let os_runqueue = M.gauge ~cat:"os" ~name:"runqueue"
let os_y = M.gauge ~cat:"os" ~name:"y"
let p_h = M.dist ~cat:"p" ~name:"h"
let platform_lat = M.dist ~cat:"platform" ~name:"lat"
let platform_latency_ns = M.dist ~cat:"platform" ~name:"latency-ns"

(* Every test runs against a clean, enabled registry and leaves the
   recorder off (other suites must not see stray metrics).  Settings
   persist across enables by design, so pin both explicitly. *)
let with_metrics ?(interval_ns = M.default_interval_ns)
    ?(retention = M.default_retention) f () =
  M.enable ~interval_ns ~retention ();
  M.reset_registry ();
  Fun.protect ~finally:M.disable f

let test_disabled_is_free () =
  M.disable ();
  M.reset_registry ();
  M.counter_incr cpu_x;
  M.gauge_set os_y 7.;
  M.take_snapshot ~at:100.;
  let tel = M.read () in
  Alcotest.(check int) "no snapshots" 0 (List.length tel.M.snapshots);
  Alcotest.(check int) "no counters" 0 (List.length tel.M.counters)

let test_emitters_and_snapshot =
  with_metrics (fun () ->
      M.counter_add cpu_busy_ns 10.;
      M.counter_incr cpu_busy_ns;
      M.gauge_set os_runqueue 3.;
      M.gauge_add os_runqueue 2.;
      M.observe platform_latency_ns 500.;
      M.observe platform_latency_ns 700.;
      M.take_snapshot ~at:50_000.;
      let tel = M.read () in
      Alcotest.(check int) "one snapshot" 1 (List.length tel.M.snapshots);
      let s = List.hd tel.M.snapshots in
      Alcotest.(check (float 0.)) "at" 50_000. s.M.at;
      (* Keys are sorted: cpu/... < os/... < platform/... *)
      Alcotest.(check (list string)) "sorted keys"
        [ "cpu/busy-ns"; "os/runqueue"; "platform/latency-ns" ]
        (List.map fst (M.values s));
      (match List.assoc "cpu/busy-ns" (M.values s) with
      | M.Count v -> Alcotest.(check (float 0.)) "counter" 11. v
      | _ -> Alcotest.fail "cpu/busy-ns should be a counter");
      (match List.assoc "os/runqueue" (M.values s) with
      | M.Level v -> Alcotest.(check (float 0.)) "gauge" 5. v
      | _ -> Alcotest.fail "os/runqueue should be a gauge");
      match List.assoc "platform/latency-ns" (M.values s) with
      | M.Dist d -> Alcotest.(check int) "dist n" 2 d.M.n
      | _ -> Alcotest.fail "platform/latency-ns should be a dist")

let test_kind_mismatch_raises =
  with_metrics (fun () ->
      M.counter_incr cpu_k;
      Alcotest.check_raises "gauge on a counter key"
        (Invalid_argument "Metrics: cpu/k already registered with another kind")
        (fun () -> M.gauge_set cpu_k_gauge 1.))

(* A handle is a name, not a cell: one made before a drain, a reset or
   a capture writes into whichever registry is current when it emits,
   and a capture hands the outer registry back with its cells. *)
let handle_probe = M.counter ~cat:"handle" ~name:"probe"

let test_handles_follow_registry =
  with_metrics (fun () ->
      let probe name want =
        Alcotest.(check (option (float 0.))) name want
          (List.assoc_opt "handle/probe" (M.read ()).M.counters)
      in
      M.counter_add handle_probe 1.;
      ignore (M.drain ());
      M.counter_add handle_probe 2.;
      probe "after drain" (Some 2.);
      M.reset_registry ();
      M.counter_add handle_probe 3.;
      probe "after reset" (Some 3.);
      let (), inner = M.capture (fun () -> M.counter_add handle_probe 4.) in
      Alcotest.(check (list (pair string (float 0.)))) "inside capture"
        [ ("handle/probe", 4.) ] inner.M.counters;
      M.counter_add handle_probe 5.;
      probe "outer cell restored" (Some 8.))

let test_handles_share_cell =
  with_metrics (fun () ->
      let a = M.counter ~cat:"cpu" ~name:"shared"
      and b = M.counter ~cat:"cpu" ~name:"shared" in
      M.counter_add a 1.;
      M.counter_add b 2.;
      M.counter_incr a;
      Alcotest.(check (list (pair string (float 0.)))) "one cell"
        [ ("cpu/shared", 4.) ] (M.read ()).M.counters;
      M.take_snapshot ~at:1.;
      let s = List.hd (M.read ()).M.snapshots in
      Alcotest.(check bool) "find" true (M.find s "cpu/shared" = Some (M.Count 4.));
      Alcotest.(check bool) "find absent" true (M.find s "cpu/absent" = None))

let test_boundary_sampling =
  (* Boundaries k*dt in (from, until]: a jump from 0 to 10*dt crosses
     exactly 10; a second jump of less than dt crosses none. *)
  with_metrics ~interval_ns:1_000. (fun () ->
      M.counter_incr cpu_e;
      M.sample_boundaries ~from:0. ~until:10_000.;
      M.sample_boundaries ~from:10_000. ~until:10_999.;
      let tel = M.read () in
      Alcotest.(check int) "10 boundary snapshots" 10
        (List.length tel.M.snapshots);
      Alcotest.(check (list (float 0.))) "at k*dt"
        [ 1e3; 2e3; 3e3; 4e3; 5e3; 6e3; 7e3; 8e3; 9e3; 10e3 ]
        (List.map (fun (s : M.snapshot) -> s.M.at) tel.M.snapshots))

let test_retention_bound =
  with_metrics ~interval_ns:1_000. ~retention:4 (fun () ->
      M.counter_incr cpu_e;
      (* One huge jump: 100 boundaries, only the last 4 survive — and
         the skip-ahead must account the other 96 as dropped. *)
      M.sample_boundaries ~from:0. ~until:100_000.;
      let tel = M.read () in
      Alcotest.(check int) "4 kept" 4 (List.length tel.M.snapshots);
      Alcotest.(check int) "96 dropped" 96 tel.M.snap_dropped;
      Alcotest.(check (float 0.)) "last is at until" 100_000.
        (List.nth tel.M.snapshots 3).M.at)

let test_engine_advance_snapshots =
  (* The engine samples boundaries as its clock advances through
     scheduled events — including the final run ~until jump. *)
  with_metrics ~interval_ns:1_000. (fun () ->
      let e = E.create () in
      for i = 1 to 5 do
        E.schedule e (float_of_int i *. 700.) (fun _ ->
            M.counter_incr cpu_ev)
      done;
      E.run ~until:5_000. e;
      let tel = M.read () in
      Alcotest.(check int) "snapshot per 1000ns boundary" 5
        (List.length tel.M.snapshots);
      match List.assoc "cpu/ev" (M.values (List.hd tel.M.snapshots)) with
      | M.Count v ->
          (* Boundary 1000 is sampled before the event at 1400 runs:
             only the event at 700 has fired. *)
          Alcotest.(check (float 0.)) "boundary before event" 1. v
      | _ -> Alcotest.fail "cpu/ev should be a counter")

let test_capture_isolates =
  with_metrics (fun () ->
      M.counter_add cpu_outer 5.;
      let (), tel =
        M.capture (fun () ->
            M.counter_add cpu_inner 2.;
            M.take_snapshot ~at:42.)
      in
      (* The capture saw only its own emissions... *)
      Alcotest.(check (list string)) "captured counter"
        [ "cpu/inner" ] (List.map fst tel.M.counters);
      Alcotest.(check int) "captured snapshot" 1 (List.length tel.M.snapshots);
      (* ...and the outer registry was untouched by the inner run. *)
      let outer = M.read () in
      Alcotest.(check (list string)) "outer intact"
        [ "cpu/outer" ] (List.map fst outer.M.counters);
      M.inject tel;
      let merged = M.read () in
      Alcotest.(check (list string)) "inject merges"
        [ "cpu/inner"; "cpu/outer" ]
        (List.map fst merged.M.counters);
      Alcotest.(check int) "inject appends snapshots" 1
        (List.length merged.M.snapshots))

(* The cross-domain contract: telemetry read after Parallel.run is the
   same at jobs 1 and jobs 2 — counters summed, gauges last-writer-wins
   in submission order, snapshots concatenated in submission order,
   histograms merged bucket-wise. *)
let thunks () =
  List.map
    (fun i () ->
      M.counter_add cpu_work (float_of_int i);
      M.gauge_set os_level (float_of_int i);
      for k = 1 to 50 do
        M.observe platform_lat
          (float_of_int (((i * 7919) + (k * 104729)) mod 10_000))
      done;
      M.take_snapshot ~at:(float_of_int i *. 1_000.);
      i)
    [ 1; 2; 3; 4; 5; 6 ]

let run_at ~jobs =
  M.enable ();
  M.reset_registry ();
  let vs = Xc_sim.Parallel.run ~jobs (thunks ()) in
  let tel = M.read () in
  M.disable ();
  (vs, tel)

let test_parallel_jobs_deterministic () =
  let vs1, t1 = run_at ~jobs:1 in
  let vs2, t2 = run_at ~jobs:2 in
  Alcotest.(check (list int)) "results" vs1 vs2;
  Alcotest.(check (list (pair string (float 0.)))) "counters" t1.M.counters
    t2.M.counters;
  Alcotest.(check (list (pair string (float 0.)))) "gauges" t1.M.gauges
    t2.M.gauges;
  Alcotest.(check (list (float 0.))) "snapshot times"
    (List.map (fun (s : M.snapshot) -> s.M.at) t1.M.snapshots)
    (List.map (fun (s : M.snapshot) -> s.M.at) t2.M.snapshots);
  List.iter2
    (fun (ka, ha) (kb, hb) ->
      Alcotest.(check string) "hist key" ka kb;
      Alcotest.(check bool) "hist equal" true (H.equal ha hb))
    t1.M.hists t2.M.hists;
  (* And the exported counter-event rows are identical, which is what
     the --timeseries artifact contract really says. *)
  let render t =
    List.map
      (fun (ev : Xc_trace.Trace.event) ->
        Printf.sprintf "%s/%s@%.3f=%.6f" ev.cat ev.name ev.ts ev.value)
      (M.to_trace_events t)
  in
  Alcotest.(check (list string)) "trace events" (render t1) (render t2)

(* QCheck: bucket-wise histogram merge is associative and commutative
   (the property the Dist snapshot projection relies on — float-sum
   statistics would break it, which is why dist_view has no mean). *)
let hist_of_samples l =
  let h = H.create () in
  List.iter (fun x -> H.add h (Float.abs x +. 1.)) l;
  h

let qcheck_merge_associative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is associative"
    QCheck.(triple (list float) (list float) (list float))
    (fun (a, b, c) ->
      let ha = hist_of_samples a
      and hb = hist_of_samples b
      and hc = hist_of_samples c in
      H.equal
        (H.merge (H.merge ha hb) hc)
        (H.merge ha (H.merge hb hc)))

let qcheck_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is commutative"
    QCheck.(pair (list float) (list float))
    (fun (a, b) ->
      let ha = hist_of_samples a and hb = hist_of_samples b in
      H.equal (H.merge ha hb) (H.merge hb ha))

(* QCheck: the one-scan [percentiles] is three [percentile] calls bit
   for bit — on empty, single-sample and random histograms, with
   ascending percentiles drawn from the whole [0, 100] range (ties and
   the p0/p100 ends included). *)
let qcheck_percentiles_one_scan =
  let open QCheck in
  let samples =
    Gen.(
      frequency
        [
          (1, pure []);
          (1, map (fun x -> [ x ]) (float_bound_inclusive 1e9));
          (4, list_size (int_range 2 300) (float_bound_inclusive 1e9));
        ])
  in
  let ps =
    Gen.(
      map
        (fun l -> Array.of_list (List.sort compare l))
        (list_size (int_range 0 5)
           (frequency
              [ (3, float_bound_inclusive 100.); (1, oneofl [ 0.; 50.; 99.; 100. ]) ])))
  in
  Test.make ~count:300 ~name:"Histogram.percentiles = percentile, bit for bit"
    (make
       ~print:(fun (l, ps) ->
         Printf.sprintf "%d samples, ps [%s]" (List.length l)
           (String.concat "; " (Array.to_list (Array.map string_of_float ps))))
       (Gen.pair samples ps))
    (fun (l, ps) ->
      let h = H.of_samples l in
      let want = Array.map (H.percentile h) ps in
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        want (H.percentiles h ps))

(* QCheck: however a stream of samples is partitioned across capture
   groups, injecting the captures yields the same merged histogram —
   the "snapshot merge is associative across domains" property. *)
let qcheck_capture_partition =
  QCheck.Test.make ~count:100
    ~name:"Metrics capture/inject invariant under partitioning"
    QCheck.(pair (list (pair small_nat (int_bound 3))) (int_bound 3))
    (fun (samples, _) ->
      let groups = 4 in
      let run_partitioned () =
        M.enable ();
        M.reset_registry ();
        let tels =
          List.init groups (fun g ->
              snd
                (M.capture (fun () ->
                     List.iter
                       (fun (v, tag) ->
                         if tag mod groups = g then
                           M.observe p_h
                             (float_of_int (v + 1)))
                       samples)))
        in
        List.iter M.inject tels;
        let tel = M.read () in
        M.disable ();
        tel
      in
      let direct () =
        M.enable ();
        M.reset_registry ();
        List.iter
          (fun (v, _) -> M.observe p_h (float_of_int (v + 1)))
          samples;
        let tel = M.read () in
        M.disable ();
        tel
      in
      let a = run_partitioned () and b = direct () in
      match (a.M.hists, b.M.hists) with
      | [ (_, ha) ], [ (_, hb) ] -> H.equal ha hb
      | [], [] -> samples = []
      | _ -> samples = [])

(* ---------------- Reference: the per-boundary loop ---------------- *)

(* The registry as it was first written: one full snapshot (a sorted
   fold of every metric, histograms rescanned) per interval boundary a
   clock jump crosses, pushed one at a time through the retention
   bound.  Slow and obviously right; the registry must leave exactly
   the snapshots and drop count this loop leaves. *)
module Naive = struct
  type metric = C of float ref | G of float ref | D of H.t

  type t = {
    tbl : (string, metric) Hashtbl.t;
    snaps : (float * (string * M.sample) list) Queue.t;
    mutable dropped : int;
    dt : float;
    retention : int;
  }

  let create ~dt ~retention =
    { tbl = Hashtbl.create 8; snaps = Queue.create (); dropped = 0; dt; retention }

  let view = function
    | C r -> M.Count !r
    | G r -> M.Level !r
    | D h ->
        let q = H.percentiles h [| 50.; 99.; 100. |] in
        M.Dist { M.n = H.count h; p50 = q.(0); p99 = q.(1); max_ = q.(2) }

  let snapshot t ~at =
    let values =
      Hashtbl.fold (fun k m acc -> (k, view m) :: acc) t.tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Queue.push (at, values) t.snaps;
    while Queue.length t.snaps > t.retention do
      ignore (Queue.pop t.snaps);
      t.dropped <- t.dropped + 1
    done

  let sample_boundaries t ~from ~until =
    if until > from then begin
      let k = ref (Float.floor (from /. t.dt) +. 1.) in
      let k1 = Float.floor (until /. t.dt) in
      while !k <= k1 do
        snapshot t ~at:(!k *. t.dt);
        k := !k +. 1.
      done
    end

  let find t k mk = match Hashtbl.find_opt t.tbl k with
    | Some m -> m
    | None -> let m = mk () in Hashtbl.add t.tbl k m; m

  let counter_add t k v =
    match find t k (fun () -> C (ref 0.)) with C r -> r := !r +. v | _ -> assert false

  let gauge_set t k v =
    match find t k (fun () -> G (ref 0.)) with G r -> r := v | _ -> assert false

  let gauge_add t k v =
    match find t k (fun () -> G (ref 0.)) with G r -> r := !r +. v | _ -> assert false

  let observe t k v =
    match find t k (fun () -> D (H.create ())) with D h -> H.add h v | _ -> assert false
end

(* One step of a telemetry workload: an emit on one of a few fixed
   keys, an explicit snapshot, or a clock jump to [nb] boundaries past
   the current interval plus a fraction [frac] of the next one. *)
type op =
  | Add of int * float
  | Set of int * float
  | Inc of int * float
  | Obs of int * float
  | Snap
  | Jump of int * float

let counter_keys = [| ("cpu", "busy-ns"); ("net", "messages") |]
let gauge_keys = [| ("os", "runqueue"); ("net", "in-flight") |]
let dist_keys = [| ("platform", "latency-ns") |]
let join (c, n) = c ^ "/" ^ n

(* Advance [clock] by a [Jump (nb, frac)], handing the jump to
   [sample]; a jump that does not move the clock forward is a no-op. *)
let jump ~dt clock nb frac sample =
  let until = (Float.floor (!clock /. dt) +. float_of_int nb +. frac) *. dt in
  sample ~from:!clock ~until;
  if until > !clock then clock := until

let apply_naive t clock = function
  | Add (i, v) -> Naive.counter_add t (join counter_keys.(i)) v
  | Set (i, v) -> Naive.gauge_set t (join gauge_keys.(i)) v
  | Inc (i, v) -> Naive.gauge_add t (join gauge_keys.(i)) v
  | Obs (i, v) -> Naive.observe t (join dist_keys.(i)) v
  | Snap -> Naive.snapshot t ~at:!clock
  | Jump (nb, frac) -> jump ~dt:t.Naive.dt clock nb frac (Naive.sample_boundaries t)

let counters = Array.map (fun (cat, name) -> M.counter ~cat ~name) counter_keys
let gauges = Array.map (fun (cat, name) -> M.gauge ~cat ~name) gauge_keys
let dists = Array.map (fun (cat, name) -> M.dist ~cat ~name) dist_keys

let apply_registry ~dt clock = function
  | Add (i, v) -> M.counter_add counters.(i) v
  | Set (i, v) -> M.gauge_set gauges.(i) v
  | Inc (i, v) -> M.gauge_add gauges.(i) v
  | Obs (i, v) -> M.observe dists.(i) v
  | Snap -> M.take_snapshot ~at:!clock
  | Jump (nb, frac) -> jump ~dt clock nb frac M.sample_boundaries

(* Bit-level equality: the artifacts print these floats, so -0. and 0.
   (or two NaNs) must not pass for one another by accident. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_sample a b =
  match (a, b) with
  | M.Count x, M.Count y | M.Level x, M.Level y -> same_float x y
  | M.Dist x, M.Dist y ->
      x.M.n = y.M.n && same_float x.M.p50 y.M.p50 && same_float x.M.p99 y.M.p99
      && same_float x.M.max_ y.M.max_
  | _ -> false

let agrees_with_naive ~dt ~retention ops =
  let naive = Naive.create ~dt ~retention in
  let c = ref 0. in
  List.iter (apply_naive naive c) ops;
  M.enable ~interval_ns:dt ~retention ();
  M.reset_registry ();
  let tel =
    Fun.protect ~finally:M.disable (fun () ->
        let c = ref 0. in
        List.iter (apply_registry ~dt c) ops;
        M.read ())
  in
  let want = List.of_seq (Queue.to_seq naive.snaps) in
  tel.M.snap_dropped = naive.dropped
  && List.length tel.M.snapshots = List.length want
  && List.for_all2
       (fun (s : M.snapshot) (at, vs) ->
         same_float s.M.at at
         && List.length (M.values s) = List.length vs
         && List.for_all2
              (fun (k, a) (k', b) -> String.equal k k' && same_sample a b)
              (M.values s) vs)
       tel.M.snapshots want

let gen_case =
  let open QCheck.Gen in
  let* retention = frequency [ (2, pure 1); (1, pure 2); (3, int_range 1 12) ] in
  let* dt = oneof [ pure 1.; pure 1000.; float_range 1. 5e4 ] in
  (* Jumps of exactly [retention] and [retention + 1] boundaries are
     where a skip-ahead can go wrong, so they are drawn often. *)
  let jump =
    let* nb =
      frequency
        [
          (2, pure 0);
          (2, pure 1);
          (3, pure retention);
          (3, pure (retention + 1));
          (2, int_range 0 (3 * retention + 3));
        ]
    in
    let* frac = oneof [ pure 0.; pure 0.5; float_bound_exclusive 1. ] in
    pure (Jump (nb, frac))
  in
  let value = oneof [ pure 0.; pure (-0.); pure 1.; float_range (-1e3) 1e6 ] in
  let op =
    frequency
      [
        (3, map2 (fun i v -> Add (i, v)) (int_bound 1) value);
        (2, map2 (fun i v -> Set (i, v)) (int_bound 1) value);
        (2, map2 (fun i v -> Inc (i, v)) (int_bound 1) value);
        (2, map (fun v -> Obs (0, Float.abs v +. 1.)) value);
        (1, pure Snap);
        (5, jump);
      ]
  in
  let* ops = list_size (int_range 0 40) op in
  pure (dt, retention, ops)

let print_case (dt, retention, ops) =
  let op = function
    | Add (i, v) -> Printf.sprintf "add %d %h" i v
    | Set (i, v) -> Printf.sprintf "set %d %h" i v
    | Inc (i, v) -> Printf.sprintf "inc %d %h" i v
    | Obs (i, v) -> Printf.sprintf "obs %d %h" i v
    | Snap -> "snap"
    | Jump (nb, f) -> Printf.sprintf "jump %d+%h" nb f
  in
  Printf.sprintf "dt %h retention %d: %s" dt retention
    (String.concat "; " (List.map op ops))

let qcheck_matches_naive_loop =
  QCheck.Test.make ~count:400
    ~name:"Metrics snapshots = the per-boundary reference loop"
    (QCheck.make ~print:print_case gen_case)
    (fun (dt, retention, ops) -> agrees_with_naive ~dt ~retention ops)

(* The edges the property draws often, pinned: retention 1, and jumps
   of exactly [retention] and [retention + 1] boundaries, with and
   without emits between them. *)
let test_naive_edges () =
  List.iter
    (fun retention ->
      List.iter
        (fun ops ->
          if not (agrees_with_naive ~dt:1000. ~retention ops) then
            Alcotest.failf "retention %d: %s" retention
              (print_case (1000., retention, ops)))
        [
          [ Add (0, 1.); Jump (retention, 0.) ];
          [ Add (0, 1.); Jump (retention + 1, 0.5) ];
          [ Add (0, 1.); Jump (retention, 0.); Jump (retention + 1, 0.) ];
          [ Add (0, 1.); Jump (retention, 0.); Add (0, 1.); Jump (retention + 1, 0.) ];
          [ Obs (0, 5.); Jump (1, 0.); Obs (0, 7.); Jump (retention + 1, 0.25); Snap ];
        ])
    [ 1; 2; 3; 8 ]

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "disabled emitters are no-ops" `Quick
          test_disabled_is_free;
        Alcotest.test_case "emitters, snapshot, sorted keys" `Quick
          test_emitters_and_snapshot;
        Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
        Alcotest.test_case "handles follow drain, reset and capture" `Quick
          test_handles_follow_registry;
        Alcotest.test_case "two handles for one key share a cell" `Quick
          test_handles_share_cell;
        Alcotest.test_case "boundary sampling in (from, until]" `Quick
          test_boundary_sampling;
        Alcotest.test_case "retention bound with skip-ahead" `Quick
          test_retention_bound;
        Alcotest.test_case "engine advance takes snapshots" `Quick
          test_engine_advance_snapshots;
        Alcotest.test_case "capture isolates, inject merges" `Quick
          test_capture_isolates;
        Alcotest.test_case "Parallel.run telemetry identical at jobs 1 and 2"
          `Quick test_parallel_jobs_deterministic;
        QCheck_alcotest.to_alcotest qcheck_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_percentiles_one_scan;
        QCheck_alcotest.to_alcotest qcheck_capture_partition;
        Alcotest.test_case "reference loop: retention edges" `Quick
          test_naive_edges;
        QCheck_alcotest.to_alcotest qcheck_matches_naive_loop;
      ] );
  ]
