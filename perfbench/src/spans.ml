(* The benchmark's own span recorder: host wall-clock and allocated
   words around calls into the simulator's layers.

   It is deliberately independent of [Xc_trace]: the tail-attribution
   workload captures that ring as simulated data, so host-side spans
   must never land in it.  Spans live in memory (growable arrays) and
   are written out once, at exit.  When the recorder is off, [span]
   is one branch and a direct call. *)

let now = Unix.gettimeofday

(* Total words allocated by this domain so far: minor + major −
   promoted.  Promotion cancels out, so the count depends only on the
   allocation sequence, never on when the minor heap happened to be
   collected. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type t = {
  name : string;
  parent : int;  (** index of the enclosing span, or -1 *)
  start : float;  (** host seconds *)
  stop : float;
  words : float;  (** words allocated inside the span, children included *)
}

let on = ref false
let spans : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let dummy = { name = ""; parent = -1; start = 0.; stop = 0.; words = 0. }

let enable () =
  on := true;
  spans := Array.make 1024 dummy;
  count := 0;
  stack := []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (2 * !count) dummy in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  let i = !count in
  !spans.(i) <- s;
  incr count;
  i

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let i = push { dummy with name; parent } in
    stack := i :: !stack;
    let w0 = words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let w1 = words () in
      stack := List.tl !stack;
      !spans.(i) <- { name; parent; start = t0; stop = t1; words = w1 -. w0 }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = Array.to_list (Array.sub !spans 0 !count)

(* Per-name totals: (calls, inclusive seconds, self seconds, inclusive
   words).  Self time is a span's duration minus its direct children's
   durations, so self times over all spans telescope to the roots'
   total duration. *)
type total = { calls : int; incl_s : float; self_s : float; incl_words : float }

let mark () = !count

let totals ?(from = 0) ?upto () =
  let n = !count in
  let upto = Option.value upto ~default:n in
  let child_s = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl = Hashtbl.create 16 in
  for i = from to upto - 1 do
    let s = !spans.(i) in
    let d = s.stop -. s.start in
    let prev =
      Option.value (Hashtbl.find_opt tbl s.name)
        ~default:{ calls = 0; incl_s = 0.; self_s = 0.; incl_words = 0. }
    in
    Hashtbl.replace tbl s.name
      {
        calls = prev.calls + 1;
        incl_s = prev.incl_s +. d;
        self_s = prev.self_s +. d -. child_s.(i);
        incl_words = prev.incl_words +. s.words;
      }
  done;
  tbl

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (all ())

(* Total duration of the spans with index in [from, upto) that are
   named in [names] and whose direct parent is named [parent]. *)
let under ~from ~upto ~parent names =
  let a = ref 0. in
  for i = from to upto - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 && !spans.(s.parent).name = parent && List.mem s.name names then
      a := !a +. (s.stop -. s.start)
  done;
  !a

let write ~path ~header =
  let oc = open_out path in
  List.iter (fun l -> Printf.fprintf oc "# %s\n" l) header;
  output_string oc "id,parent,name,start_s,end_s,words\n";
  let base = if !count > 0 then !spans.(0).start else 0. in
  Array.iteri
    (fun i s ->
      if i < !count then
        Printf.fprintf oc "%d,%d,%s,%.9f,%.9f,%.0f\n" i s.parent s.name
          (s.start -. base) (s.stop -. base) s.words)
    !spans;
  close_out oc
