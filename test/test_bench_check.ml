(* Tests for Xc_sim.Bench_json: parsing the schema-v2 BENCH_sim.json
   artifact and the [xc bench check] regression verdicts. *)

module BJ = Xc_sim.Bench_json

(* A faithful miniature of what the bench harness writes: top-level
   summary fields first, then the per-experiment array whose entries
   carry same-named fields that must NOT shadow the top-level ones. *)
let artifact ?(schema = {|  "schema_version": 2,|}) ?(git = "v1.2-3-gabc")
    ?(jobs = 2) ?(wall = 4.2) ?(events = 23000) ?(eps = 5476.19) () =
  Printf.sprintf
    {|{
  "git": "%s",
%s
  "jobs": %d,
  "total_wall_s": %g,
  "total_events": %d,
  "events_per_sec": %g,
  "experiments": [
    { "name": "fig3", "total_wall_s": 99.0, "events_per_sec": 1.0 }
  ]
}
|}
    git schema jobs wall events eps

let parse s =
  match BJ.of_string s with
  | Ok summary -> summary
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse () =
  let s = parse (artifact ()) in
  Alcotest.(check string) "git" "v1.2-3-gabc" s.BJ.git;
  Alcotest.(check int) "schema" 2 s.BJ.schema_version;
  Alcotest.(check int) "jobs" 2 s.BJ.jobs;
  Alcotest.(check (float 1e-9)) "wall" 4.2 s.BJ.total_wall_s;
  Alcotest.(check int) "events" 23000 s.BJ.total_events;
  Alcotest.(check (float 1e-9)) "eps" 5476.19 s.BJ.events_per_sec

let test_top_level_wins () =
  (* Per-experiment total_wall_s/events_per_sec appear later in the
     file and must not be picked up. *)
  let s = parse (artifact ~wall:7.5 ~eps:123.0 ()) in
  Alcotest.(check (float 1e-9)) "top-level wall, not fig3's 99.0" 7.5
    s.BJ.total_wall_s;
  Alcotest.(check (float 1e-9)) "top-level eps, not fig3's 1.0" 123.0
    s.BJ.events_per_sec

let test_rejects_v1 () =
  (match BJ.of_string (artifact ~schema:"" ()) with
  | Error msg ->
      Alcotest.(check bool) "names the schema problem" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "v1 artifact (no schema_version) must be rejected");
  match BJ.of_string (artifact ~schema:{|  "schema_version": 1,|} ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema_version 1 must be rejected"

let test_rejects_garbage () =
  List.iter
    (fun s ->
      match BJ.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "{}"; {|{"schema_version": 2}|} ]

let test_of_file_missing () =
  match BJ.of_file "/nonexistent/BENCH_sim.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must be an Error"

(* ---------------- verdicts ---------------- *)

let verdict metric vs =
  List.find (fun (v : BJ.verdict) -> v.BJ.metric = metric) vs

let test_check_ok () =
  let baseline = parse (artifact ()) in
  (* Within threshold both ways: 2% slower throughput, 2% more wall. *)
  let current = parse (artifact ~eps:5366.7 ~wall:4.284 ()) in
  let vs = BJ.check ~baseline ~current () in
  Alcotest.(check int) "two metrics" 2 (List.length vs);
  Alcotest.(check bool) "no regression" false (BJ.regressed vs);
  let t = verdict "events_per_sec" vs in
  Alcotest.(check bool) "change is negative but tolerated" true
    (t.BJ.change_pct < 0. && not t.BJ.regressed)

let test_check_throughput_regression () =
  let baseline = parse (artifact ()) in
  let current = parse (artifact ~eps:5000.0 ()) in
  (* ~8.7% throughput drop. *)
  let vs = BJ.check ~baseline ~current () in
  Alcotest.(check bool) "flagged" true (BJ.regressed vs);
  Alcotest.(check bool) "throughput metric regressed" true
    (verdict "events_per_sec" vs).BJ.regressed;
  Alcotest.(check bool) "wall metric fine" false
    (verdict "total_wall_s" vs).BJ.regressed

let test_check_wall_regression () =
  let baseline = parse (artifact ()) in
  let current = parse (artifact ~wall:4.5 ()) in
  (* ~7.1% more wall clock. *)
  let vs = BJ.check ~baseline ~current () in
  Alcotest.(check bool) "wall regressed" true
    (verdict "total_wall_s" vs).BJ.regressed

let test_improvement_not_flagged () =
  (* Direction matters: faster wall / higher throughput, however
     large, is never a regression. *)
  let baseline = parse (artifact ()) in
  let current = parse (artifact ~eps:9000.0 ~wall:2.0 ()) in
  Alcotest.(check bool) "improvements pass" false
    (BJ.regressed (BJ.check ~baseline ~current ()))

let test_custom_threshold () =
  let baseline = parse (artifact ()) in
  let current = parse (artifact ~eps:5366.7 ()) in
  (* 2% drop: fine at the default 3%, flagged at 1%. *)
  Alcotest.(check bool) "default threshold passes" false
    (BJ.regressed (BJ.check ~baseline ~current ()));
  Alcotest.(check bool) "tight threshold flags" true
    (BJ.regressed (BJ.check ~threshold_pct:1. ~baseline ~current ()))

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec scan i = i + n <= l && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

let test_fresh_baseline_zero () =
  (* A metric whose baseline is 0 (the pre-fix artifacts recorded
     events: 0 for the analytic experiments) must not divide into a
     silently-green +0.0%: it gets an explicit fresh verdict. *)
  let baseline = parse (artifact ~eps:0.0 ~wall:4.2 ()) in
  let current = parse (artifact ~eps:5476.19 ~wall:4.2 ()) in
  let vs = BJ.check ~baseline ~current () in
  let t = verdict "events_per_sec" vs in
  Alcotest.(check bool) "fresh" true t.BJ.fresh;
  Alcotest.(check bool) "never regressed" false t.BJ.regressed;
  Alcotest.(check bool) "change is NaN, not +0.0%" true
    (Float.is_nan t.BJ.change_pct);
  Alcotest.(check bool) "whole check not regressed" false (BJ.regressed vs);
  (* Unchanged-zero (0 -> 0) is NOT fresh: nothing came into existence. *)
  let vs0 =
    BJ.check ~baseline ~current:(parse (artifact ~eps:0.0 ~wall:4.2 ())) ()
  in
  let t0 = verdict "events_per_sec" vs0 in
  Alcotest.(check bool) "zero to zero is not fresh" false t0.BJ.fresh;
  Alcotest.(check (float 1e-9)) "zero to zero is 0%" 0. t0.BJ.change_pct;
  (* And the wall metric, whose regression direction is inverted, gets
     the same treatment. *)
  let vs_w =
    BJ.check
      ~baseline:(parse (artifact ~wall:0.0 ()))
      ~current:(parse (artifact ~wall:9.9 ()))
      ()
  in
  let w = verdict "total_wall_s" vs_w in
  Alcotest.(check bool) "wall fresh, not a +inf%% regression" true
    (w.BJ.fresh && not w.BJ.regressed)

let test_render_fresh () =
  let baseline = parse (artifact ~eps:0.0 ()) in
  let current = parse (artifact ~eps:5476.19 ()) in
  let vs = BJ.check ~baseline ~current () in
  let out = BJ.render ~baseline ~current vs in
  Alcotest.(check bool) "render flags the fresh metric" true
    (contains out "NEW (baseline 0)");
  Alcotest.(check bool) "no NaN leaks into the table" false (contains out "nan")

let test_render () =
  let baseline = parse (artifact ~git:"v1.2-3-gabc" ()) in
  let current = parse (artifact ~git:"v1.2-9-gdef" ~jobs:4 ~eps:5000.0 ()) in
  let vs = BJ.check ~baseline ~current () in
  let out = BJ.render ~baseline ~current vs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "render mentions %S" needle)
        true (contains out needle))
    [ "v1.2-3-gabc"; "v1.2-9-gdef"; "REGRESSED"; "REGRESSION"; "jobs differ" ]

(* ---------------- Artifact writer/reader round-trip ---------------- *)

let to_string xs = BJ.to_string ~git:"g" ~seed:42 ~trace:None ~jobs:1 ~wall_s:1. xs

let experiment_t =
  Alcotest.testable
    (fun ppf (x : BJ.experiment) ->
      Format.fprintf ppf "%s %h %d %h %a" x.name x.wall_s x.events
        x.events_per_sec
        Format.(pp_print_option pp_print_string)
        x.spec)
    ( = )

(* A spec whose param value holds a brace: the reader once cut the
   record at that brace and lost the spec. *)
let test_brace_in_spec () =
  let x =
    BJ.experiment ~spec:"[experiment e]\nparam.note = x}y\n" ~name:"e"
      ~wall_s:0.5 1000
  in
  Alcotest.(check (list experiment_t))
    "round-trip" [ x ]
    (BJ.experiments_of_string (to_string [ x ]))

(* Names over the spec-name alphabet; spec text printable ASCII plus
   newlines, braces, quotes and backslashes included.  Wall times and
   rates are drawn on the grids the writer prints exactly. *)
let prop_roundtrip =
  let open QCheck.Gen in
  let name =
    string_size ~gen:(oneofl (String.to_seq "abcXYZ059._/=+:-" |> List.of_seq))
      (int_range 1 12)
  in
  let spec_char = frequency [ (8, char_range ' ' '~'); (1, oneofl [ '\n'; '{'; '}'; '"'; '\\' ]) ] in
  let experiment =
    map
      (fun (name, (wall_us, events, rate_dec, spec)) ->
        {
          BJ.name;
          wall_s = float_of_int wall_us /. 1e6;
          events;
          events_per_sec = float_of_int rate_dec /. 10.;
          spec;
        })
      (pair name
         (quad (int_range 0 10_000_000) (int_range 0 1_000_000_000)
            (int_range 0 1_000_000_000)
            (opt (string_size ~gen:spec_char (int_range 0 40)))))
  in
  QCheck.Test.make ~count:300 ~name:"BENCH_sim.json experiments round-trip"
    (QCheck.make (list_size (int_range 0 5) experiment))
    (fun xs -> BJ.experiments_of_string (to_string xs) = xs)

let suites =
  [
    ( "sim.bench_check",
      [
        Alcotest.test_case "parse schema v2" `Quick test_parse;
        Alcotest.test_case "top-level fields win" `Quick test_top_level_wins;
        Alcotest.test_case "rejects schema v1" `Quick test_rejects_v1;
        Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
        Alcotest.test_case "of_file missing" `Quick test_of_file_missing;
        Alcotest.test_case "within threshold ok" `Quick test_check_ok;
        Alcotest.test_case "throughput regression" `Quick
          test_check_throughput_regression;
        Alcotest.test_case "wall regression" `Quick test_check_wall_regression;
        Alcotest.test_case "improvement not flagged" `Quick
          test_improvement_not_flagged;
        Alcotest.test_case "custom threshold" `Quick test_custom_threshold;
        Alcotest.test_case "fresh baseline-zero verdict" `Quick
          test_fresh_baseline_zero;
        Alcotest.test_case "render fresh" `Quick test_render_fresh;
        Alcotest.test_case "render" `Quick test_render;
        Alcotest.test_case "brace in spec round-trips" `Quick test_brace_in_spec;
        QCheck_alcotest.to_alcotest prop_roundtrip;
      ] );
  ]
