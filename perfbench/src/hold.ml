(* The engine hold model: a standalone [Engine] kept at a fixed
   pending-event depth, each event rescheduling itself once with a
   random delay and a trivial callback.  It prices the engine's own
   schedule/dispatch path (heap and same-timestamp lane) at a
   workload's depth, with no driver payload on top. *)

module Engine = Xc_sim.Engine

type result = { depth : int; ns_per_event : float; words_per_event : float }

let once ~depth ~events ~seed =
  let rng = Xc_sim.Prng.create seed in
  let mean = float_of_int (max 1 depth) in
  let delays = Array.init 4096 (fun _ -> Xc_sim.Prng.exponential rng ~mean) in
  let e = Engine.create () in
  let left = ref events and k = ref 0 in
  let rec callback e =
    if !left > 0 then begin
      decr left;
      incr k;
      Engine.schedule_after e delays.(!k land 4095) callback
    end
  in
  for i = 0 to depth - 1 do
    Engine.schedule e delays.(i land 4095) callback
  done;
  let w0 = Spans.words () in
  let t0 = Spans.now () in
  Engine.run e;
  let t1 = Spans.now () in
  let w1 = Spans.words () in
  let n = float_of_int (Engine.events_executed e) in
  ((t1 -. t0) *. 1e9 /. n, (w1 -. w0) /. n)

(* Median time of 3 runs at reference host speed (a calibration slice
   follows each run); the word count is exact and the same on every
   run, so the first one is reported. *)
let probe ~depth ~seed =
  let depth = max 1 depth in
  let events = max 200_000 (20 * depth) in
  let runs =
    List.init 3 (fun i ->
        let r = once ~depth ~events ~seed:(seed + i) in
        Calibrate.tick ();
        r)
  in
  {
    depth;
    ns_per_event = Spans.median (List.map fst runs) *. Calibrate.factor ();
    words_per_event = snd (List.hd runs);
  }
