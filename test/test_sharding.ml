(* Tests for the sharded work-stealing layer of Xc_sim.Parallel: the
   Deque the scheduler is built on, the Shard declarations, and the
   structural-determinism contract — results, trace and telemetry must
   be byte-identical at any job count and under any steal schedule. *)

open Xc_sim
module Trace = Xc_trace.Trace

(* ---------------- Deque ---------------- *)

let test_deque_fifo () =
  let d = Parallel.Deque.create () in
  Alcotest.(check (option int)) "pop on empty" None (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "steal on empty" None (Parallel.Deque.steal d);
  List.iter (Parallel.Deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Parallel.Deque.length d);
  Alcotest.(check (option int)) "owner pops front" (Some 1) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "thief steals back" (Some 4) (Parallel.Deque.steal d);
  Alcotest.(check (option int)) "pop again" (Some 2) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "steal again" (Some 3) (Parallel.Deque.steal d);
  Alcotest.(check int) "drained" 0 (Parallel.Deque.length d);
  Alcotest.(check (option int)) "pop after drain" None (Parallel.Deque.pop d)

let test_deque_interleaved () =
  let d = Parallel.Deque.create () in
  List.iter (Parallel.Deque.push d) [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check (option int)) "steal newest" (Some 5) (Parallel.Deque.steal d);
  Parallel.Deque.push d 6;
  Alcotest.(check (option int)) "pop oldest" (Some 0) (Parallel.Deque.pop d);
  Alcotest.(check (option int)) "steal the late push" (Some 6) (Parallel.Deque.steal d);
  let rest = List.init 4 (fun _ -> Option.get (Parallel.Deque.pop d)) in
  Alcotest.(check (list int)) "FIFO middle survives" [ 1; 2; 3; 4 ] rest

let test_deque_growth () =
  (* Push far past any initial capacity; FIFO order must survive the
     ring reallocations. *)
  let d = Parallel.Deque.create () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Parallel.Deque.push d i
  done;
  Alcotest.(check int) "length" n (Parallel.Deque.length d);
  let popped = List.init n (fun _ -> Option.get (Parallel.Deque.pop d)) in
  Alcotest.(check (list int)) "FIFO across growth" (List.init n Fun.id) popped

let test_deque_concurrent_steal () =
  (* The deque is the one structure shared across domains: an owner
     popping while thieves steal must hand out every element exactly
     once.  (On a 1-core host the domains timeslice, which still
     exercises the locking.) *)
  let d = Parallel.Deque.create () in
  let n = 200 in
  for i = 0 to n - 1 do
    Parallel.Deque.push d i
  done;
  let grab () =
    let rec go acc =
      match Parallel.Deque.steal d with None -> acc | Some v -> go (v :: acc)
    in
    go []
  in
  let thieves = [ Domain.spawn grab; Domain.spawn grab ] in
  let rec own acc =
    match Parallel.Deque.pop d with None -> acc | Some v -> go_on acc v
  and go_on acc v = own (v :: acc) in
  let mine = own [] in
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (mine @ stolen) in
  Alcotest.(check (list int)) "every element exactly once" (List.init n Fun.id) all

(* ---------------- Shard declarations ---------------- *)

let test_shard_counts () =
  Alcotest.(check int) "thunk is one shard" 1
    (Parallel.Shard.count (Parallel.Shard.thunk (fun () -> ())));
  Alcotest.(check int) "make counts its array" 7
    (Parallel.Shard.count
       (Parallel.Shard.make
          ~shards:(Array.init 7 (fun i () -> i))
          ~merge:(fun _ -> ())))

let test_merge_sees_index_order () =
  (* Whatever workers ran the shards, merge receives the results in
     shard-index order. *)
  let task =
    Parallel.Shard.make
      ~shards:(Array.init 16 (fun i () -> i * i))
      ~merge:Array.to_list
  in
  List.iter
    (fun (jobs, seed) ->
      match
        Parallel.run_sharded ~jobs ~steal_seed:seed ~oversubscribe:true [ task ]
      with
      | [ squares ] ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs %d seed %d" jobs seed)
            (List.init 16 (fun i -> i * i))
            squares
      | _ -> Alcotest.fail "wrong arity")
    [ (1, 0); (2, 0); (2, 1); (4, 0); (4, 42) ]

let test_shard_reduce () =
  (match
     Parallel.run_sharded ~jobs:2 ~oversubscribe:true
       [ Parallel.Shard.reduce ~combine:( + ) (Array.init 10 (fun i () -> i)) ]
   with
  | [ total ] -> Alcotest.(check int) "left fold" 45 total
  | _ -> Alcotest.fail "wrong arity");
  match
    Parallel.run_sharded [ Parallel.Shard.reduce ~combine:( + ) [||] ]
  with
  | _ -> Alcotest.fail "empty reduce should raise"
  | exception Invalid_argument _ -> ()

(* ---------------- structural determinism ---------------- *)

(* A small sharded workload that exercises everything at once: multiple
   tasks, uneven shard counts, trace spans and telemetry counters and
   histograms per shard.  Runs are compared against the jobs-1 /
   seed-0 reference byte-for-byte (results, events, telemetry). *)

let shard_cells = Metrics.counter ~cat:"shardtest" ~name:"cells"
let shard_size = Metrics.dist ~cat:"shardtest" ~name:"size"

let workload () =
  List.init 3 (fun t ->
      Parallel.Shard.make
        ~shards:
          (Array.init
             (3 + t)
             (fun i () ->
               Trace.span
                 ~cat:"shardtest"
                 ~name:(Printf.sprintf "%d.%d" t i)
                 (float_of_int ((10 * t) + i + 1));
               Metrics.counter_incr shard_cells;
               Metrics.observe shard_size (float_of_int i);
               (t * 100) + i))
        ~merge:(fun arr -> Array.fold_left ( + ) 0 arr))

let run_workload ~jobs ~steal_seed =
  Trace.enable ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let (results, captured), telemetry =
        Metrics.capture (fun () ->
            Trace.capture (fun () ->
                Parallel.run_sharded ~jobs ~steal_seed ~oversubscribe:true
                  (workload ())))
      in
      (results, captured, telemetry))

let check_against_reference ~jobs ~steal_seed =
  let r0, c0, t0 = run_workload ~jobs:1 ~steal_seed:0 in
  let r, c, t = run_workload ~jobs ~steal_seed in
  let label fmt = Printf.sprintf fmt jobs steal_seed in
  Alcotest.(check (list int)) (label "results jobs=%d seed=%d") r0 r;
  Alcotest.(check bool) (label "trace jobs=%d seed=%d") true (c0 = c);
  Alcotest.(check bool) (label "telemetry jobs=%d seed=%d") true (t0 = t)

let test_deterministic_across_jobs () =
  List.iter
    (fun jobs -> check_against_reference ~jobs ~steal_seed:0)
    [ 1; 2; 4 ]

let test_deterministic_across_seeds () =
  List.iter
    (fun seed -> check_against_reference ~jobs:3 ~steal_seed:seed)
    [ 1; 7; 1234; -5 ]

let prop_deterministic =
  QCheck.Test.make ~name:"sharded runs are schedule-independent" ~count:25
    QCheck.(pair (int_range 1 4) (int_range 0 10_000))
    (fun (jobs, steal_seed) ->
      let r0, c0, t0 = run_workload ~jobs:1 ~steal_seed:0 in
      let r, c, t = run_workload ~jobs ~steal_seed in
      r0 = r && c0 = c && t0 = t)

(* Exceptions under stealing: every completed shard's capture still
   lands, and the lowest-indexed failure of the first failed task
   re-raises — at any schedule. *)
exception Cell of int

let test_exception_ordering_oversubscribed () =
  List.iter
    (fun (jobs, seed) ->
      match
        Parallel.run_sharded ~jobs ~steal_seed:seed ~oversubscribe:true
          [
            Parallel.Shard.make
              ~shards:(Array.init 4 (fun i () -> i))
              ~merge:(fun _ -> ());
            Parallel.Shard.make
              ~shards:
                (Array.init 6 (fun i () ->
                     if i >= 2 then raise (Cell i) else i))
              ~merge:(fun _ -> ());
          ]
      with
      | _ -> Alcotest.fail "expected Cell"
      | exception Cell 2 -> ()
      | exception Cell n ->
          Alcotest.failf "jobs %d seed %d: re-raised shard %d, not the lowest"
            jobs seed n)
    [ (1, 0); (2, 0); (3, 5); (4, 9) ]

(* ---------------- capture plumbing ---------------- *)

let test_trace_concat_rebases () =
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let seg name width =
        snd
          (Trace.capture (fun () ->
               Trace.span ~cat:"c" ~name width))
      in
      let a = seg "a" 5. and b = seg "b" 7. and c = seg "c" 11. in
      let all = Trace.concat [ a; b; c ] in
      Alcotest.(check int) "all events survive" 3 (List.length all.Trace.events);
      (* Segment k's events shift by the cursor-sum of segments 0..k-1,
         so the concatenated timeline is monotone. *)
      let ts =
        List.map (fun (e : Trace.event) -> e.Trace.ts) all.Trace.events
      in
      Alcotest.(check bool) "timeline is monotone" true
        (List.sort compare ts = ts);
      Alcotest.(check (float 1e-9)) "cursor sums" (a.Trace.cursor +. b.Trace.cursor +. c.Trace.cursor)
        all.Trace.cursor;
      (* Associativity: one concat equals concat of concats. *)
      Alcotest.(check bool) "associative" true
        (Trace.concat [ a; b; c ] = Trace.concat [ Trace.concat [ a; b ]; c ]))

let m_n = Metrics.counter ~cat:"m" ~name:"n"
let m_g = Metrics.gauge ~cat:"m" ~name:"g"
let m_h = Metrics.dist ~cat:"m" ~name:"h"

let test_merge_telemetry () =
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Metrics.disable ())
    (fun () ->
      let cell k v =
        snd
          (Metrics.capture (fun () ->
               Metrics.counter_add m_n v;
               Metrics.gauge_set m_g v;
               Metrics.observe m_h (float_of_int k)))
      in
      let a = cell 1 2. and b = cell 2 3. in
      let m = Metrics.merge_telemetry a b in
      Alcotest.(check (float 1e-9)) "counters add" 5.
        (List.assoc "m/n" m.Metrics.counters);
      Alcotest.(check (float 1e-9)) "gauges last-writer-wins" 3.
        (List.assoc "m/g" m.Metrics.gauges);
      (* Merging with empty is the identity on totals. *)
      let with_empty = Metrics.merge_telemetry Metrics.empty_telemetry a in
      Alcotest.(check bool) "empty is left identity" true (with_empty = a);
      (* Associativity: the shard fold's bracketing cannot matter. *)
      let c = cell 3 4. in
      Alcotest.(check bool) "associative" true
        (Metrics.merge_telemetry (Metrics.merge_telemetry a b) c
        = Metrics.merge_telemetry a (Metrics.merge_telemetry b c)))

(* Hedged cluster runs keep the schedule-independence contract: the
   LB policy's probe PRNG is seeded from the experiment seed (never
   global state), so a sweep mixing hedged and plain configurations is
   structurally identical at any job count and steal schedule. *)
let prop_hedged_sweep_schedule_independent =
  let module CS = Xc_platforms.Cluster_sim in
  let configs =
    lazy
      (let platform =
         Xc_platforms.Platform.create
           (Xc_platforms.Config.make Xc_platforms.Config.X_container)
       in
       let base =
         {
           (CS.config_of_platform ~containers:3 ~connections:2 platform) with
           CS.duration_ns = 5e7;
           warmup_ns = 1e7;
         }
       in
       [
         base;
         { base with CS.lb = Some { Xc_lb.Policy.kind = Xc_lb.Policy.Power_of_two; clones = 2 } };
         { base with CS.lb = Some { Xc_lb.Policy.kind = Xc_lb.Policy.Least_loaded; clones = 3 } };
       ])
  in
  let reference = lazy (CS.run_sweep ~jobs:1 (Lazy.force configs)) in
  QCheck.Test.make ~name:"hedged cluster sweeps are schedule-independent"
    ~count:8
    QCheck.(pair (int_range 1 4) (int_range 0 10_000))
    (fun (jobs, steal_seed) ->
      let shards =
        List.map
          (fun c -> Parallel.Shard.thunk (fun () -> CS.run c))
          (Lazy.force configs)
      in
      let r = Parallel.run_sharded ~jobs ~steal_seed ~oversubscribe:true shards in
      r = Lazy.force reference)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

(* ---------------- Capture ---------------- *)

(* A switch with_capture turns on is off again afterwards, also when
   the thunk raises; a switch already on keeps its settings. *)
let test_with_capture_switches () =
  let off () = (Trace.enabled (), Metrics.on ()) in
  let switches = Alcotest.(pair bool bool) in
  Alcotest.check switches "off before" (false, false) (off ());
  Capture.with_capture ~trace:true ~sample:3 ~metrics:true (fun () ->
      Alcotest.check switches "on inside" (true, true) (off ());
      Alcotest.(check int) "stride set" 3 (Trace.sample_stride ()));
  Alcotest.check switches "off after" (false, false) (off ());
  (match Capture.with_capture ~trace:true (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected the exception"
  | exception Failure _ -> ());
  Alcotest.check switches "off after a raise" (false, false) (off ());
  Trace.enable ~sample:5 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Capture.with_capture ~trace:true ~sample:2 (fun () ->
          Alcotest.(check int) "outer stride kept" 5 (Trace.sample_stride ()));
      Alcotest.(check bool) "outer switch kept" true (Trace.enabled ()));
  Trace.enable ~sample:1 ();
  Trace.disable ()

(* measure isolates a run's capture; merge of one piece is that piece,
   which is what lets an unsplittable bench experiment run as a single
   cell without moving a byte. *)
let test_measure_merge () =
  Capture.with_capture ~trace:true ~metrics:true (fun () ->
      let piece k =
        Capture.measure (fun () ->
            Trace.span ~cat:"c" ~name:"s" (float_of_int k);
            Metrics.counter_add m_n (float_of_int k);
            k)
      in
      let a = piece 2 and b = piece 3 in
      Alcotest.(check int) "value" 2 a.Capture.value;
      Alcotest.(check int) "own events only" 1 (List.length a.trace.Trace.events);
      let m = Capture.merge [ a; b ] in
      Alcotest.(check (list int)) "values in order" [ 2; 3 ] m.value;
      Alcotest.(check bool) "traces concatenate" true
        (m.trace = Trace.concat [ a.trace; b.trace ]);
      Alcotest.(check (float 1e-9)) "counters add" 5.
        (List.assoc "m/n" m.telemetry.Metrics.counters);
      let one = Capture.merge [ a ] in
      Alcotest.(check bool) "merge of one is that piece" true
        (one.trace = a.trace && one.telemetry = a.telemetry
       && one.events = a.events && one.wall_s = a.wall_s))

let suites =
  [
    ( "sim.parallel.sharding",
      [
        Alcotest.test_case "deque FIFO vs steal ends" `Quick test_deque_fifo;
        Alcotest.test_case "deque interleaved" `Quick test_deque_interleaved;
        Alcotest.test_case "deque growth" `Quick test_deque_growth;
        Alcotest.test_case "deque concurrent steal" `Quick
          test_deque_concurrent_steal;
        Alcotest.test_case "shard counts" `Quick test_shard_counts;
        Alcotest.test_case "merge sees index order" `Quick
          test_merge_sees_index_order;
        Alcotest.test_case "shard reduce" `Quick test_shard_reduce;
        Alcotest.test_case "deterministic across jobs" `Quick
          test_deterministic_across_jobs;
        Alcotest.test_case "deterministic across steal seeds" `Quick
          test_deterministic_across_seeds;
        Alcotest.test_case "exception ordering oversubscribed" `Quick
          test_exception_ordering_oversubscribed;
        Alcotest.test_case "trace concat rebases" `Quick
          test_trace_concat_rebases;
        Alcotest.test_case "merge_telemetry" `Quick test_merge_telemetry;
        Alcotest.test_case "with_capture switches" `Quick
          test_with_capture_switches;
        Alcotest.test_case "measure and merge" `Quick test_measure_merge;
      ]
      @ qsuite [ prop_deterministic; prop_hedged_sweep_schedule_independent ] );
  ]
