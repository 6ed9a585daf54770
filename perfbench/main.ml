(* perfbench: host-side benchmark of the simulator.

   One process runs one workload at --jobs 1: set-up (suite parsing
   and pricing, repeated to take a median), then whole passes over the
   workload's cells until --seconds of host time have gone, then the
   correctness check.  The last line of standard output is one JSON
   object; with --trace 0 it carries the end-to-end metrics, with
   --trace 1 the per-layer metrics taken from the span recorder. *)

module W = Perfbench.Workloads
module Spans = Perfbench.Spans
module Calibrate = Perfbench.Calibrate

(* CPU seconds spent initialising the simulator's libraries (registry
   validation and the like) before [main] ran: set-up work, counted
   from [Perfbench_start], which is linked ahead of them. *)
let init_s = Sys.time () -. Perfbench_start.cpu_s

let median = Spans.median

(* [init_s] of fresh processes at reference speed: this executable
   started again with [--start-probe] prints [init_s] and the median
   of three calibration slices it then runs, and exits.  Each start is
   rescaled by its own slices, taken in the same process moments
   later; the median over many starts steadies a
   one-sample-per-process figure. *)
let start_probe = "--start-probe"

let probe_starts k =
  median
    (List.init k (fun _ ->
         let exe = Sys.executable_name in
         let ic = Unix.open_process_args_in exe [| exe; start_probe |] in
         let line = In_channel.input_all ic in
         let status = Unix.close_process_in ic in
         match (status, List.map float_of_string_opt (String.split_on_char ' ' (String.trim line))) with
         | Unix.WEXITED 0, [ Some init; Some slice ] -> init *. Calibrate.reference_slice_s /. slice
         | _ -> failwith "start probe failed"))

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Timed passes *)

type pass = {
  outcomes : W.outcome list;
  scale : float;  (** host seconds -> reference-speed seconds, for this pass *)
  ref_secs : float;  (** reference-speed seconds, calibration slices excluded *)
  words : float;
  events : int;
  requests : int;
  top_heap_words : int;  (** process high-water mark after this pass *)
  span_from : int;  (** this pass's spans are [span_from, span_upto) *)
  span_upto : int;
}

let run_pass (w : W.t) cells =
  Gc.full_major ();
  let e0 = Xc_sim.Engine.domain_events () in
  let span_from = Spans.mark () in
  let w0 = Spans.words () in
  Calibrate.tick ();
  let s0 = !Calibrate.spent in
  let t0 = Spans.now () in
  let outcomes = Spans.span "pass" (fun () -> w.W.pass cells) in
  let t1 = Spans.now () in
  let s1 = !Calibrate.spent in
  Calibrate.tick ();
  let w1 = Spans.words () in
  let secs = t1 -. t0 -. (s1 -. s0) in
  let scale = Calibrate.factor () in
  let ref_secs = secs *. scale in
  Printf.eprintf "perfbench: pass %.4f host s, %.4f reference s\n" secs ref_secs;
  {
    outcomes;
    scale;
    ref_secs;
    words = w1 -. w0;
    events = Xc_sim.Engine.domain_events () - e0;
    requests = List.fold_left (fun a (o : W.outcome) -> a + o.W.requests) 0 outcomes;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    span_from;
    span_upto = Spans.mark ();
  }

(* ------------------------------------------------------------------ *)
(* Metrics: (name, value, unit) *)

let req_per_s timed = median (List.map (fun p -> float_of_int p.requests /. p.ref_secs) timed)

let end_to_end ~setup_s ~first timed =
  [
    ("sim_req_per_s", req_per_s timed, "req/s");
    ("setup_s", setup_s, "s");
    ("alloc_words_per_req", first.words /. float_of_int first.requests, "words/req");
    ("peak_heap_mb", float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
  ]

(* Times are self seconds per timed pass at reference speed (set-up
   times are medians over set-ups, rescaled by [setup_scale]); words
   and counts are the first pass's (exact). *)
let per_layer ~seed ~setup_scale ~first timed =
  let outs = first.outcomes in
  let f = float_of_int in
  let n = f (List.length timed) in
  let sum g = List.fold_left (fun a o -> a + g o) 0 outs in
  let per_pass g = List.fold_left (fun a p -> a +. (g p *. p.scale)) 0. timed /. n in
  let tables = List.map (fun p -> (p, Spans.totals ~from:p.span_from ~upto:p.span_upto ())) timed in
  let once = Spans.totals ~from:first.span_from ~upto:first.span_upto () in
  let get tbl name g = match Hashtbl.find_opt tbl name with Some t -> g t | None -> 0. in
  let self name =
    List.fold_left (fun a (p, tbl) -> a +. (get tbl name (fun t -> t.Spans.self_s) *. p.scale)) 0. tables
    /. n
  in
  let words name = get once name (fun t -> t.Spans.incl_words) in
  let per_req layer =
    let r = sum (fun o -> if o.W.layer = layer then o.W.requests else 0) in
    if r = 0 then 0. else words layer /. f r
  in
  let max_depth only =
    List.fold_left (fun a (o : W.outcome) -> if only o then max a o.W.depth else a) 0 outs
  in
  let hold = Perfbench.Hold.probe ~depth:(max_depth (fun _ -> true)) ~seed in
  let setup_median name = median (Spans.durations name) *. setup_scale in
  let pricing_words =
    match List.find_opt (fun (s : Spans.t) -> s.Spans.name = "pricing") (Spans.all ()) with
    | Some s -> s.Spans.words
    | None -> 0.
  in
  let drivers = [ "closed_loop"; "open_loop"; "cluster_sim" ] in
  [
    ("suite.parse_s", setup_median "suite", "s");
    ("pricing.s", setup_median "pricing", "s");
    ("pricing.words", pricing_words, "words");
    ("engine.events", f first.events, "count");
    ("engine.events_per_req", f first.events /. f first.requests, "events/req");
    ("engine.hold_depth", f hold.Perfbench.Hold.depth, "count");
    ("engine.hold_ns_per_event", hold.Perfbench.Hold.ns_per_event, "ns/event");
    ("engine.hold_words_per_event", hold.Perfbench.Hold.words_per_event, "words/event");
    ("closed_loop.s", self "closed_loop", "s");
    ("closed_loop.words_per_req", per_req "closed_loop", "words/req");
    ("open_loop.s", self "open_loop", "s");
    ("open_loop.words_per_req", per_req "open_loop", "words/req");
    ("open_loop.max_queue", f (max_depth (fun o -> o.W.layer = "open_loop")), "count");
    ("cluster_sim.s", self "cluster_sim", "s");
    ("cluster_sim.words_per_req", per_req "cluster_sim", "words/req");
    ("cluster_sim.switches", f (sum (fun o -> o.W.switches)), "count");
    ("trace.events", f (sum (fun o -> o.W.trace_events)), "count");
    ("trace.dropped", f (sum (fun o -> o.W.dropped)), "count");
    ( "trace.overhead_s",
      per_pass (fun p ->
          let under parent = Spans.under ~from:p.span_from ~upto:p.span_upto ~parent drivers in
          under "shard" -. under "twins"),
      "s" );
    ("trace.drain_s", self "trace", "s");
    ("profile.s", self "profile", "s");
    ("profile.words", words "profile", "words");
    ("critical_path.s", self "critical_path", "s");
    ("critical_path.words", words "critical_path", "words");
    ("export.s", self "export", "s");
    ("export.bytes", f (sum (fun o -> o.W.export_bytes)), "bytes");
    ("metrics.snapshots", f (sum (fun o -> o.W.snapshots)), "count");
    ("metrics.drain_s", self "metrics", "s");
    ("parallel.merge_s", self "parallel", "s");
    ("unattributed.s", self "pass" +. self "shard" +. self "twins", "s");
    ("recorder.sim_req_per_s", req_per_s timed, "req/s");
  ]

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = start_probe then begin
    let slices = List.init 3 (fun _ -> Calibrate.slice ()) in
    Printf.printf "%.9f %.9f\n" init_s (median slices);
    exit 0
  end;
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME macro-closed, sched-deep or tail-attribution");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42, where the stored reference applies)");
      ("--seconds", Arg.Set_int seconds, "S host seconds of timed passes (at least one pass)");
      ("--trace", Arg.Set_int trace, "0|1 1 = span recorder on, print per-layer metrics");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME [options]";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 0 then die "--seconds must be >= 0";
  let traced = !trace = 1 in
  if traced then Spans.enable ();
  let provenance =
    Perfbench.Provenance.to_json ~workload:w.W.name ~seed:!seed ~seconds:!seconds ~trace:traced
  in
  Printf.printf "provenance %s\n%!" provenance;
  (* Set-up, repeated; the last one's cells are the ones timed, and
     only they stay live, so the heap's high-water mark is the
     workload's own. *)
  let text = w.W.text () in
  let setup () =
    let t0 = Spans.now () in
    let cells =
      Spans.span "setup" (fun () -> W.setup ~seed:!seed ~name:w.W.name text)
    in
    let dt = Spans.now () -. t0 in
    Calibrate.tick ();
    (cells, dt)
  in
  let durations = List.init 150 (fun _ -> snd (setup ())) in
  let cells, last = setup () in
  let setup_scale = Calibrate.factor () in
  let setup_s = probe_starts 151 +. (median (last :: durations) *. setup_scale) in
  (* The first pass is untimed.  It runs with the major GC kept tight,
     so its heap high-water mark follows the live data rather than
     where the major cycle happened to stand; its allocation and event
     counts are the exact ones reported. *)
  let first =
    let gc = Gc.get () in
    Gc.set { gc with Gc.space_overhead = 10 };
    let p = run_pass w cells in
    Gc.set gc;
    p
  in
  (* Timed phase: whole passes until the budget is spent. *)
  let start = Spans.now () in
  let rec loop acc =
    let acc = run_pass w cells :: acc in
    if Spans.now () -. start < float_of_int !seconds then loop acc else List.rev acc
  in
  let timed = loop [] in
  let passes = first :: timed in
  let reference =
    if !seed = W.default_seed then Some (Perfbench.Check.parse_reference Perfbench.Suite_text.reference)
    else None
  in
  let failures =
    Perfbench.Check.failures ~workload:w.W.name ~reference (List.map (fun p -> p.outcomes) passes)
  in
  List.iter
    (fun (o : W.outcome) ->
      Printf.printf "cell %s %s %s\n" w.W.name o.W.cell o.W.digest;
      Printf.eprintf "perfbench: %s: %d requests, depth %d, %d trace events\n" o.W.cell
        o.W.requests o.W.depth o.W.trace_events)
    first.outcomes;
  List.iter (fun (c, rs) -> List.iter (fun r -> Printf.printf "FAIL %s: %s\n" c r) rs) failures;
  Printf.printf "digest %s %s\n" w.W.name
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.map (fun (o : W.outcome) -> o.W.digest) first.outcomes))));
  Printf.printf "count passes %d\ncount requests %d\ncount engine.events %d\n"
    (List.length timed) first.requests first.events;
  Printf.printf "count trace.events %d\ncount alloc_words %.0f\n"
    (List.fold_left (fun a (o : W.outcome) -> a + o.W.trace_events) 0 first.outcomes)
    first.words;
  let metrics =
    if traced then per_layer ~seed:!seed ~setup_scale ~first timed else end_to_end ~setup_s ~first timed
  in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (num v) unit) metrics;
  if traced then begin
    let dir = ".perfbench_out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.csv" w.W.name !seed) in
    Spans.write ~path ~header:[ "provenance " ^ provenance ];
    Printf.printf "wrote %s\n" path
  end;
  let failed = List.length failures in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (List.length first.outcomes) failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))
