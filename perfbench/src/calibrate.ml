(* A fixed reference kernel, written here and sharing no code with the
   simulator: a hold-model event loop over a binary heap of unboxed
   timestamps, driven by an LCG.  It allocates nothing, so running it
   between cells leaves the simulator's heap and GC schedule alone;
   its host time tracks how fast this host runs right now. *)

let cap = 1024
let times = Array.make cap 0.
let ids = Array.make cap 0

let kernel ~events =
  let n = ref 0 and seed = ref 12345 and sum = ref 0 in
  (* Floats never cross a function call (that would box them): the
     pushed time is staged in slot [cap - 2], the popped minimum lands
     in slot [cap - 1]. *)
  let push id =
    let t = times.(cap - 2) in
    let i = ref !n in
    incr n;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      ids.(!i) <- ids.(p);
      i := p
    done;
    times.(!i) <- t;
    ids.(!i) <- id
  in
  let pop () =
    times.(cap - 1) <- times.(0);
    ids.(cap - 1) <- ids.(0);
    decr n;
    let lt = times.(!n) and lid = ids.(!n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !n then continue := false
      else begin
        let c = if l + 1 < !n && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < lt then begin
          times.(!i) <- times.(c);
          ids.(!i) <- ids.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- lt;
    ids.(!i) <- lid
  in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed
  in
  for id = 1 to 256 do
    times.(cap - 2) <- float_of_int (next ()) *. 1e-9;
    push id
  done;
  for _ = 1 to events do
    pop ();
    let id = ids.(cap - 1) in
    sum := !sum + id;
    times.(cap - 2) <- times.(cap - 1) +. (float_of_int (next ()) *. 1e-9);
    push id
  done;
  !sum

(* Host-speed normalisation.  Wall-clock on a shared host moves
   between speed regimes that last seconds; the kernel above slows
   down with it.  A kernel slice runs after every set-up and at every
   cell boundary; a measurement's host seconds, slices excluded, are multiplied by
   [reference_slice_s / median slice taken meanwhile]: seconds at a
   fixed reference speed.  Each slice is a span of its own, so the
   recorder's self times leave it out as well. *)

let slice_events = 40_000

(* The slice's time on the reference host (a 2-core Xeon VM in its
   fast regime): the benchmark's unit of host speed. *)
let reference_slice_s = 3e-3

(* Host seconds spent in slices so far. *)
let spent = ref 0.

(* Slice durations since the last [factor]. *)
let slices : float list ref = ref []

(* Host seconds of one slice. *)
let slice () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ~events:slice_events));
  Unix.gettimeofday () -. t0

let tick () =
  Spans.span "calibrate" @@ fun () ->
  let d = slice () in
  spent := !spent +. d;
  slices := d :: !slices

(* The factor that turns host seconds measured since the last call
   into reference-speed seconds. *)
let factor () =
  let m = Spans.median !slices in
  slices := [];
  reference_slice_s /. m
