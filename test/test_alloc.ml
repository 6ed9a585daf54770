(* Tier-1 allocation gate for the request drivers: minor-heap words
   allocated per completed request on two short runs.  The drivers'
   events are ints over arrays, so what a request still allocates is a
   handful of boxed floats; a closure or tuple per request brought back
   into the hot path shows up here as tens of words.  Each bound is the
   measured value plus about 10%.  Word counts do not depend on the
   host; they were measured with OCaml 5.1.1 (no flambda) under the dev
   profile. *)

open Xc_platforms

let xc = Platform.create (Config.make Config.X_container)
let nginx = Xc_apps.Nginx.server ~cores:4 xc

let words_per_request run =
  let w0 = Gc.minor_words () in
  let completed = run () in
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "requests completed" true (completed > 0);
  (w1 -. w0) /. float_of_int completed

let gate name ~bound run =
  let w = words_per_request run in
  if w > bound then
    Alcotest.failf "%s: %.2f minor words per request, over the %.1f bound" name w bound

(* Measured 9.19 words per request (5191 requests): the boxed
   [service_ns] return and the [Prng.normal] return inside it, the boxed
   [schedule_int] time and the boxed [Histogram.add] sample. *)
let test_closed_loop () =
  gate "closed loop" ~bound:10.1 (fun () ->
      let config =
        { Closed_loop.default_config with connections = 96; duration_ns = 1e8; warmup_ns = 1e7 }
      in
      (Closed_loop.run config nginx).completed)

(* Measured 13.21 words per request (4897 requests): as above, plus the
   [Prng.exponential] gap and a second boxed [schedule_int] time for the
   next arrival. *)
let test_open_loop () =
  gate "open loop" ~bound:14.5 (fun () ->
      let service = Xc_apps.Recipe.service_ns xc Xc_apps.Nginx.static_request_wrk in
      let rate_rps = 0.95 *. float_of_int nginx.units *. 1e9 /. service in
      let config = Open_loop.config ~duration_ns:1e8 ~warmup_ns:1e7 ~rate_rps () in
      let r = Open_loop.run config nginx in
      int_of_float (Float.round (r.completed_rps *. 0.1)))

(* Telemetry gates: what a metric costs once it is registered. *)
module M = Xc_sim.Metrics

let ticks = M.counter ~cat:"alloc" ~name:"ticks"

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let with_telemetry ~retention f =
  M.enable ~interval_ns:1000. ~retention ();
  M.reset_registry ();
  Fun.protect f ~finally:(fun () ->
      M.reset_registry ();
      M.disable ())

(* A registered counter is bumped in place: no boxed float, no key. *)
let test_counter_incr () =
  with_telemetry ~retention:M.default_retention (fun () ->
      M.counter_incr ticks;
      let empty = minor_words (fun () -> ()) in
      let w =
        minor_words (fun () ->
            for _ = 1 to 10_000 do
              M.counter_incr ticks
            done)
      in
      Alcotest.(check (float 0.)) "counter_incr allocates nothing" empty w)

(* One clock jump is one run, however many boundaries it crosses: a
   jump over 10^6 boundaries at retention 8192 allocates exactly what a
   jump over 10 does.  Measured 15 words: the run's record, its queue
   cell and one copy of the cells; the bound is that plus about 10%. *)
let jump_words boundaries =
  with_telemetry ~retention:8192 (fun () ->
      M.counter_incr ticks;
      M.sample_boundaries ~from:0. ~until:1000.;
      M.counter_incr ticks;
      let until = 1000. *. float_of_int (boundaries + 1) in
      minor_words (fun () -> M.sample_boundaries ~from:1000. ~until))

let test_long_jump () =
  let short = jump_words 10 and long = jump_words 1_000_000 in
  Alcotest.(check (float 0.)) "independent of the jump length" short long;
  if long > 17. then
    Alcotest.failf "a 10^6-boundary jump allocates %.0f words, over the 17 bound" long

let suites =
  [
    ( "platforms.alloc",
      [
        Alcotest.test_case "closed-loop words per request" `Quick test_closed_loop;
        Alcotest.test_case "open-loop words per request" `Quick test_open_loop;
      ] );
    ( "metrics.alloc",
      [
        Alcotest.test_case "counter_incr on a handle allocates nothing" `Quick
          test_counter_incr;
        Alcotest.test_case "a long clock jump allocates O(1) words" `Quick
          test_long_jump;
      ] );
  ]
