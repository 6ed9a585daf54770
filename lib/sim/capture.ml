module Trace = Xc_trace.Trace
module Export = Xc_trace.Export

type 'a measured = {
  value : 'a;
  wall_s : float;
  events : int;
  trace : Trace.captured;
  telemetry : Metrics.telemetry;
}

(* Experiments build their engines internally, so the per-domain
   cumulative event counter is the only way to attribute events to a
   run; the captures give the run its own recorder and registry, so
   what it records is independent of which domain ran it. *)
let measure f =
  let events0 = Engine.domain_events () in
  let t0 = Unix.gettimeofday () in
  let (value, trace), telemetry = Metrics.capture (fun () -> Trace.capture f) in
  let wall_s = Unix.gettimeofday () -. t0 in
  { value; wall_s; events = Engine.domain_events () - events0; trace; telemetry }

let merge pieces =
  {
    value = List.map (fun p -> p.value) pieces;
    wall_s = List.fold_left (fun a p -> a +. p.wall_s) 0. pieces;
    events = List.fold_left (fun a p -> a + p.events) 0 pieces;
    trace = Trace.concat (List.map (fun p -> p.trace) pieces);
    telemetry =
      List.fold_left
        (fun a p -> Metrics.merge_telemetry a p.telemetry)
        Metrics.empty_telemetry pieces;
  }

let with_capture ?(trace = false) ?(capacity = Trace.default_capacity)
    ?(sample = 1) ?(metrics = false)
    ?(interval_ns = Metrics.default_interval_ns) f =
  let trace = trace && not (Trace.enabled ())
  and metrics = metrics && not (Metrics.on ()) in
  if trace then Trace.enable ~capacity ~sample ();
  if metrics then
    Metrics.enable ~interval_ns ~retention:Metrics.default_retention ();
  Fun.protect f ~finally:(fun () ->
      if trace then Trace.disable ();
      if metrics then Metrics.disable ())

type 'a tracks = (string * 'a measured) list

let spans tracks = List.map (fun (label, m) -> (label, m.trace.events)) tracks

let write_tails ~path tracks =
  let ts =
    List.filter_map
      (fun (label, events) ->
        Xc_trace.Profile.(tail_at ~label ~pct:99. (attribute events)))
      (spans tracks)
  in
  Export.tails_to_file ~path ts;
  List.length ts

let dropped tracks = List.fold_left (fun a (_, m) -> a + m.trace.dropped) 0 tracks

let write_trace ~path tracks =
  Export.to_file ~dropped:(dropped tracks) ~path (spans tracks);
  let base = Filename.remove_extension path in
  Export.to_file ~path:(base ^ ".folded") (spans tracks);
  write_tails ~path:(base ^ ".tails") tracks

let counters m = Metrics.to_trace_events m.telemetry

let write_timeseries ~path tracks =
  Export.to_file ~path (List.map (fun (label, m) -> (label, counters m)) tracks);
  List.fold_left
    (fun a (_, m) -> a + List.length m.telemetry.Metrics.snapshots)
    0 tracks

let write_perfetto ~path tracks =
  let combined =
    List.concat_map
      (fun (label, m) ->
        (label, m.trace.events)
        :: (match counters m with
           | [] -> []
           | cs -> [ (label ^ "/metrics", cs) ]))
      tracks
  in
  Export.to_file ~dropped:(dropped tracks) ~path combined;
  List.length combined
