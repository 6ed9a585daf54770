(* Tests of the benchmark itself.  The in-process cases run the real
   workloads' cells through the library and check them the way the
   executable does; the process-level cases start the benchmark
   executable (its path is the first argument) with --seconds 0 and
   read its output lines. *)

module W = Perfbench.Workloads
module Check = Perfbench.Check

let exe = ref ""

let stored = Check.parse_reference Perfbench.Suite_text.reference

let failed_cells = Alcotest.(list (pair string (list string)))

(* One pass over a workload's cells at [seed], kept for the other
   cases: a real workload costs seconds. *)
let pass_at =
  let memo = Hashtbl.create 4 in
  fun (w : W.t) seed ->
    match Hashtbl.find_opt memo (w.W.name, seed) with
    | Some outcomes -> outcomes
    | None ->
        let outcomes = w.W.pass (W.setup ~seed ~name:w.W.name (w.W.text ())) in
        Hashtbl.add memo (w.W.name, seed) outcomes;
        outcomes

(* At the default seed every cell matches the stored reference. *)
let matches_reference (w : W.t) () =
  Alcotest.check failed_cells "failed cells" []
    (Check.failures ~workload:w.W.name ~reference:(Some stored) [ pass_at w W.default_seed ])

(* A reference with one digest flipped fails exactly that cell. *)
let perturbed_reference () =
  let outcomes = pass_at W.macro_closed W.default_seed in
  let victim = (List.nth outcomes 3).W.cell in
  let flip d =
    String.mapi (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c) d
  in
  let reference =
    List.map
      (fun (((w, c), d) as entry) -> if (w, c) = ("macro-closed", victim) then ((w, c), flip d) else entry)
      stored
  in
  match Check.failures ~workload:"macro-closed" ~reference:(Some reference) [ outcomes ] with
  | [ (cell, [ reason ]) ] ->
      Alcotest.(check string) "the failed cell" victim cell;
      Alcotest.(check bool) ("a digest mismatch: " ^ reason) true (String.starts_with ~prefix:"digest " reason)
  | fs -> Alcotest.failf "expected one failed cell, got %d" (List.length fs)

(* Another seed changes the inputs and still passes every invariant. *)
let other_seed () =
  let a = pass_at W.sched_deep 7 in
  Alcotest.check failed_cells "failed cells" [] (Check.failures ~workload:"sched-deep" ~reference:None [ a ]);
  let digests o = List.map (fun (o : W.outcome) -> o.W.digest) o in
  Alcotest.(check bool)
    "the seed reaches the simulation" false
    (digests a = digests (pass_at W.sched_deep W.default_seed))

(* The benchmark prices a spec into the same run as the generic suite
   driver: short specs of every shape, compared bit for bit. *)
let driver_suite =
  {|suite = driver-check

[matrix closed]
shape = closed
workload = nginx, redis
runtime = docker, x-container
connections = 8
duration_ms = 20
warmup_ms = 2

[matrix open]
shape = open
workload = nginx
runtime = docker, x-container
rate = 0.5, 1.1
duration_ms = 20
warmup_ms = 2

[matrix cluster]
shape = cluster
runtime = docker, x-container
containers = 16
connections = 5
duration_ms = 100
warmup_ms = 20
|}

let matches_driver () =
  let suite =
    match Xc_suite.Suite.parse ~name:"driver-check" driver_suite with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let cells = W.setup ~seed:W.default_seed ~name:"driver-check" driver_suite in
  Alcotest.(check int) "cells" 10 (List.length cells);
  List.iter2
    (fun (spec : Xc_suite.Spec.t) (cell : W.cell) ->
      let row = Xc_suite.Driver.run spec in
      let s = W.execute cell in
      let same what a b =
        Alcotest.(check bool) (Printf.sprintf "%s %s" cell.W.name what) true (Float.equal a b)
      in
      same "throughput" row.Xc_suite.Driver.throughput_rps s.W.throughput;
      same "mean" row.Xc_suite.Driver.mean_ns s.W.mean;
      same "p99" row.Xc_suite.Driver.p99_ns s.W.p99)
    suite.Xc_suite.Suite.specs cells

(* ------------------------------------------------------------------ *)
(* Process level *)

let start args =
  let argv = Array.of_list (!exe :: "--seconds" :: "0" :: args) in
  (args, Unix.open_process_args_in !exe argv)

(* Standard output of one benchmark run, as lines. *)
let finish (args, ic) =
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' (String.trim out)
  | _ -> Alcotest.failf "benchmark %s failed" (String.concat " " args)

let starting prefix lines = List.filter (fun l -> String.starts_with ~prefix l) lines
let result lines = List.nth lines (List.length lines - 1)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_correct lines =
  let r = result lines in
  Alcotest.(check bool)
    ("correct, no failed cell: " ^ r) true
    (String.starts_with ~prefix:"{\"correct\": true, " r && contains r "\"failed\": 0,")

(* Same seed, two processes at once: identical digests and identical
   exact counts (allocated words, engine events, trace events). *)
let repeatable () =
  let args = [ "--workload"; "tail-attribution"; "--seed"; "42" ] in
  let a = start args and b = start args in
  let a = finish a and b = finish b in
  let exact lines = starting "cell " lines @ starting "digest " lines @ starting "count " lines in
  Alcotest.(check (list string)) "digests and counts" (exact a) (exact b);
  Alcotest.(check int) "five count lines" 5 (List.length (starting "count " a));
  Alcotest.(check bool) "trace events counted" false
    (List.mem "count trace.events 0" (starting "count " a));
  check_correct a

(* The span recorder's run checks the stored reference, prints every
   per-layer metric, and the layers a closed-loop workload never enters
   read zero. *)
let per_layer () =
  let out = finish (start [ "--workload"; "macro-closed"; "--trace"; "1" ]) in
  check_correct out;
  let r = result out in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (contains r (Printf.sprintf "%S: {" name)))
    [ "suite.parse_s"; "pricing.s"; "engine.events"; "engine.hold_ns_per_event"; "closed_loop.s";
      "trace.dropped"; "export.s"; "parallel.merge_s"; "unattributed.s"; "recorder.sim_req_per_s" ];
  Alcotest.(check bool) "no open-loop time" true (contains r "\"open_loop.s\": {\"value\": 0,")

let () =
  exe := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "cells",
        [
          Alcotest.test_case "macro-closed matches the reference" `Quick
            (matches_reference W.macro_closed);
          Alcotest.test_case "sched-deep matches the reference" `Quick
            (matches_reference W.sched_deep);
          Alcotest.test_case "tail-attribution matches the reference" `Quick
            (matches_reference W.tail_attribution);
          Alcotest.test_case "perturbed reference fails one cell" `Quick perturbed_reference;
          Alcotest.test_case "other seed passes invariants" `Quick other_seed;
          Alcotest.test_case "cells match the suite driver" `Quick matches_driver;
        ] );
      ( "executable",
        [
          Alcotest.test_case "tail-attribution repeats exactly" `Quick repeatable;
          Alcotest.test_case "traced run prints per-layer metrics" `Quick per_layer;
        ] );
    ]
