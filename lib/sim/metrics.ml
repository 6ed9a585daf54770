(* ---------------- Instance registries (original API) ---------------- *)

type t = (string, float ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.add t name r;
      r

let add t name v = cell t name := !(cell t name) +. v
let incr t name = add t name 1.
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0.
let reset t = Hashtbl.reset t

let merge a b =
  let t = create () in
  let absorb src = Hashtbl.iter (fun name r -> add t name !r) src in
  absorb a;
  absorb b;
  t

let to_alist t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_cut fmt ())
    (fun fmt (k, v) -> Format.fprintf fmt "%-40s %12.0f" k v)
    fmt (to_alist t)

(* ---------------- Global telemetry registry ---------------- *)

(* Mirrors the Trace recorder design: process-wide atomic switches, all
   mutable state domain-local (DLS), capture/inject for deterministic
   cross-domain merging in Parallel.run.  Every emitter is one atomic
   load + branch when disabled. *)

type dist_view = { n : int; p50 : float; p99 : float; max_ : float }
type sample = Count of float | Level of float | Dist of dist_view
type kind = Counter_k | Gauge_k | Dist_k

(* The sorted key set of a registry, shared by every snapshot taken
   while that key set held: key [i] is a [kinds.(i)] whose values start
   at cell [offsets.(i)] — one cell for a counter or gauge, four
   ([n], p50, p99, max) for a distribution. *)
type layout = {
  keys : string array;
  kinds : kind array;
  offsets : int array;
  width : int;
}

type snapshot = { at : Time_ns.t; layout : layout; cells : float array }

type telemetry = {
  snapshots : snapshot list;
  snap_dropped : int;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * Histogram.t) list;
}

let empty_telemetry =
  { snapshots = []; snap_dropped = 0; counters = []; gauges = []; hists = [] }

let width_of = function Counter_k | Gauge_k -> 1 | Dist_k -> 4

let layout_of keys kinds =
  let offsets = Array.make (Array.length kinds) 0 in
  let width = ref 0 in
  Array.iteri
    (fun i k ->
      offsets.(i) <- !width;
      width := !width + width_of k)
    kinds;
  { keys; kinds; offsets; width = !width }

let sample_at l cells i =
  let o = l.offsets.(i) in
  match l.kinds.(i) with
  | Counter_k -> Count cells.(o)
  | Gauge_k -> Level cells.(o)
  | Dist_k ->
      Dist
        {
          n = int_of_float cells.(o);
          p50 = cells.(o + 1);
          p99 = cells.(o + 2);
          max_ = cells.(o + 3);
        }

let values s =
  List.init (Array.length s.layout.keys) (fun i ->
      (s.layout.keys.(i), sample_at s.layout s.cells i))

let index l key = Array.find_index (String.equal key) l.keys
let find s key = Option.map (sample_at s.layout s.cells) (index s.layout key)

let default_interval_ns = 50_000. (* 50 sim-µs *)
let default_retention = 8192

let on_flag = Atomic.make false
let interval_cell = Atomic.make default_interval_ns
let retention_cell = Atomic.make default_retention

let on () = Atomic.get on_flag
let interval_ns () = Atomic.get interval_cell
let retention () = Atomic.get retention_cell

let enable ?interval_ns ?retention () =
  (match interval_ns with
  | Some dt when dt < 1. ->
      invalid_arg "Metrics.enable: interval_ns must be >= 1"
  | Some dt -> Atomic.set interval_cell dt
  | None -> ());
  (match retention with
  | Some n when n < 1 -> invalid_arg "Metrics.enable: retention must be >= 1"
  | Some n -> Atomic.set retention_cell n
  | None -> ());
  Atomic.set on_flag true

let disable () = Atomic.set on_flag false

(* A flat float record: updating [v] stores in place, no boxing. *)
type fcell = { mutable v : float }

(* A distribution and the (n, p50, p99, max) of its last projection,
   valid while [Histogram.count hist = view.(0)]: histograms only grow
   (and merging in an empty one changes nothing), so an unchanged
   count means unchanged percentiles. *)
type dcell = { mutable hist : Histogram.t; view : float array }

type mdata = Counter_v of fcell | Gauge_v of fcell | Dist_v of dcell | Unbound

(* [n] snapshots of identical cells at the consecutive boundaries
   [(k0 + i) * dt], [i < n]: everything one uneventful stretch of sim
   time produced, in O(1) however many boundaries it crossed.  An int
   [k0] moves without boxing when retention trims the front. *)
type span = {
  mutable k0 : int;
  dt : float;
  mutable n : int;
  slayout : layout;
  scells : float array;
}

type run = One of snapshot | Span of span

type reg = {
  tbl : (string, mdata) Hashtbl.t; (* key = "cat/name" *)
  mutable slots : mdata array; (* handle id -> this registry's cell *)
  mutable layout : layout; (* of [tbl], unless [stale] *)
  mutable order : mdata array; (* [tbl]'s cells in layout order *)
  mutable stale : bool;
  runs : run Queue.t; (* oldest at the front *)
  mutable last : span option; (* the newest run, if it can grow *)
  mutable kept : int; (* snapshots in [runs] *)
  mutable snap_dropped : int;
}

let empty_layout = layout_of [||] [||]

let fresh_reg () =
  {
    tbl = Hashtbl.create 32;
    slots = [||];
    layout = empty_layout;
    order = [||];
    stale = false;
    runs = Queue.create ();
    last = None;
    kept = 0;
    snap_dropped = 0;
  }

(* Capture swaps the whole registry, so every per-registry cache
   (slots, layout) goes with it. *)
let reg_key = Domain.DLS.new_key fresh_reg

let split_key k =
  match String.index_opt k '/' with
  | Some i -> (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 1))
  | None -> ("", k)

let kind_mismatch k =
  invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" k)

let kind_of = function
  | Counter_v _ -> Counter_k
  | Gauge_v _ -> Gauge_k
  | Dist_v _ -> Dist_k
  | Unbound -> assert false

(* The registry's cell for [key], created (and the layout marked stale)
   on first use. *)
let cell reg key kind =
  match Hashtbl.find_opt reg.tbl key with
  | Some m -> if kind_of m <> kind then kind_mismatch key else m
  | None ->
      let m =
        match kind with
        | Counter_k -> Counter_v { v = 0. }
        | Gauge_k -> Gauge_v { v = 0. }
        | Dist_k -> Dist_v { hist = Histogram.create (); view = [| -1.; 0.; 0.; 0. |] }
      in
      Hashtbl.add reg.tbl key m;
      reg.stale <- true;
      m

(* ---------------- Handles ---------------- *)

type handle = { key : string; id : int }
type counter = handle
type gauge = handle
type dist = handle

(* Ids index every registry's [slots]; a plain atomic counter, so
   creating a handle takes no lock and touches no registry. *)
let next_id = Atomic.make 0

let handle ~cat ~name = { key = cat ^ "/" ^ name; id = Atomic.fetch_and_add next_id 1 }
let counter = handle
let gauge = handle
let dist = handle

(* First touch of [h] in this registry: resolve its key through the
   table (two handles for one key share the cell) and cache it. *)
let resolve reg h kind =
  let m = cell reg h.key kind in
  let n = Array.length reg.slots in
  if h.id >= n then begin
    let slots = Array.make (max (h.id + 1) (Atomic.get next_id)) Unbound in
    Array.blit reg.slots 0 slots 0 n;
    reg.slots <- slots
  end;
  reg.slots.(h.id) <- m;
  m

let slot reg id =
  if id < Array.length reg.slots then Array.unsafe_get reg.slots id else Unbound

(* This registry's cell for [h]: one array load once resolved.  A
   handle's type fixes its kind, so its slot never holds another. *)
let float_cell reg h kind =
  match slot reg h.id with
  | Counter_v c | Gauge_v c -> c
  | _ -> (
      match resolve reg h kind with Counter_v c | Gauge_v c -> c | _ -> assert false)

let counter_add h v =
  if on () then begin
    let c = float_cell (Domain.DLS.get reg_key) h Counter_k in
    c.v <- c.v +. v
  end

let counter_incr h = counter_add h 1.
let gauge_set h v = if on () then (float_cell (Domain.DLS.get reg_key) h Gauge_k).v <- v

let gauge_add h v =
  if on () then begin
    let c = float_cell (Domain.DLS.get reg_key) h Gauge_k in
    c.v <- c.v +. v
  end

let observe h v =
  if on () then
    let reg = Domain.DLS.get reg_key in
    match slot reg h.id with
    | Dist_v d -> Histogram.add d.hist v
    | _ -> (
        match resolve reg h Dist_k with
        | Dist_v d -> Histogram.add d.hist v
        | _ -> assert false)

(* ---------------- Snapshots ---------------- *)

let dist_ps = [| 50.; 99.; 100. |]

let view d =
  let n = float_of_int (Histogram.count d.hist) in
  if n <> d.view.(0) then begin
    let q = Histogram.percentiles d.hist dist_ps in
    d.view.(0) <- n;
    d.view.(1) <- q.(0);
    d.view.(2) <- q.(1);
    d.view.(3) <- q.(2)
  end;
  d.view

(* Sorted by key: Hashtbl iteration order must never leak into the
   artifact (jobs-determinism is byte-level). *)
let current_layout reg =
  if reg.stale then begin
    let keys = Array.of_seq (Hashtbl.to_seq_keys reg.tbl) in
    Array.sort String.compare keys;
    let order = Array.map (Hashtbl.find reg.tbl) keys in
    reg.layout <- layout_of keys (Array.map kind_of order);
    reg.order <- order;
    reg.stale <- false
  end;
  reg.layout

(* Loops, not iterators: a snapshot allocates its cells and nothing
   else on the way. *)
let fill reg =
  let l = current_layout reg in
  let cells = Array.create_float l.width in
  for i = 0 to Array.length reg.order - 1 do
    let o = l.offsets.(i) in
    match reg.order.(i) with
    | Counter_v c | Gauge_v c -> cells.(o) <- c.v
    | Dist_v d -> Array.blit (view d) 0 cells o 4
    | Unbound -> assert false
  done;
  cells

(* Bit equality: 0. and -0. print differently, so they must not share
   a run; a NaN never equals anything and simply starts a new one. *)
let[@inline] same (a : float) b = a = b && (a <> 0. || 1. /. a = 1. /. b)

(* Would a snapshot now repeat [s]'s cells?  A distribution's cells are
   a function of its count (see [dcell]). *)
let unchanged reg s =
  s.slayout == current_layout reg
  &&
  let l = s.slayout and order = reg.order in
  let i = ref 0 in
  while
    !i < Array.length order
    &&
    let o = l.offsets.(!i) in
    match order.(!i) with
    | Counter_v c | Gauge_v c -> same c.v s.scells.(o)
    | Dist_v d -> float_of_int (Histogram.count d.hist) = s.scells.(o)
    | Unbound -> assert false
  do
    i := !i + 1
  done;
  !i = Array.length order

(* Evict the oldest snapshots beyond the retention bound, a whole run
   or the front of one at a time. *)
let trim reg =
  let cap = retention () in
  while reg.kept > cap do
    let excess = reg.kept - cap in
    let gone =
      match Queue.peek reg.runs with
      | One _ ->
          ignore (Queue.pop reg.runs);
          1
      | Span s when s.n <= excess ->
          ignore (Queue.pop reg.runs);
          s.n
      | Span s ->
          s.k0 <- s.k0 + excess;
          s.n <- s.n - excess;
          excess
    in
    reg.kept <- reg.kept - gone;
    reg.snap_dropped <- reg.snap_dropped + gone
  done

let push_one reg snap =
  Queue.push (One snap) reg.runs;
  reg.last <- None;
  reg.kept <- reg.kept + 1;
  trim reg

(* [n] boundary snapshots from boundary [k0] on: they extend the newest
   run when it ends at boundary [k0] and nothing changed since. *)
let push_boundaries reg ~k0 ~dt n =
  (match reg.last with
  | Some s when s.dt = dt && s.k0 + s.n = k0 && unchanged reg s ->
      s.n <- s.n + n
  | _ ->
      let cells = fill reg in
      let s = { k0; dt; n; slayout = reg.layout; scells = cells } in
      Queue.push (Span s) reg.runs;
      reg.last <- Some s);
  reg.kept <- reg.kept + n;
  trim reg

let take_snapshot ~at =
  if on () then begin
    let reg = Domain.DLS.get reg_key in
    let cells = fill reg in
    push_one reg { at; layout = reg.layout; cells }
  end

let sample_boundaries ~from:t0 ~until:t1 =
  if on () && t1 > t0 then begin
    let dt = interval_ns () in
    let k1 = Float.floor (t1 /. dt) in
    let k0 = Float.floor (t0 /. dt) +. 1. in
    if k1 >= k0 then
      push_boundaries (Domain.DLS.get reg_key) ~k0:(int_of_float k0) ~dt
        (int_of_float (k1 -. k0) + 1)
  end

(* ---------------- Read / capture / inject ---------------- *)

(* The runs expanded into one small record per snapshot; a span's
   records share its cells. *)
let snapshots_of_reg reg =
  Queue.fold (fun acc r -> r :: acc) [] reg.runs
  |> List.fold_left
       (fun acc -> function
         | One s -> s :: acc
         | Span s ->
             let acc = ref acc in
             for i = s.n - 1 downto 0 do
               let at = float_of_int (s.k0 + i) *. s.dt in
               acc := { at; layout = s.slayout; cells = s.scells } :: !acc
             done;
             !acc)
       []

let telemetry_of_reg reg =
  let l = current_layout reg in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  for i = Array.length l.keys - 1 downto 0 do
    let k = l.keys.(i) in
    match reg.order.(i) with
    | Counter_v c -> counters := (k, c.v) :: !counters
    | Gauge_v c -> gauges := (k, c.v) :: !gauges
    (* Copy: the telemetry value must not alias live registry state. *)
    | Dist_v d -> hists := (k, Histogram.merge d.hist (Histogram.create ())) :: !hists
    | Unbound -> assert false
  done;
  {
    snapshots = snapshots_of_reg reg;
    snap_dropped = reg.snap_dropped;
    counters = !counters;
    gauges = !gauges;
    hists = !hists;
  }

let read () =
  if not (on ()) then empty_telemetry
  else telemetry_of_reg (Domain.DLS.get reg_key)

let reset_registry () = Domain.DLS.set reg_key (fresh_reg ())

(* Flush-at-shard-boundary read: [read ()] then an in-place clear that
   keeps the registry's containers allocated for the next shard on
   this domain — the sharded runner's counterpart to [Trace.drain]. *)
let drain () =
  if not (on ()) then empty_telemetry
  else begin
    let reg = Domain.DLS.get reg_key in
    let tel = telemetry_of_reg reg in
    Hashtbl.reset reg.tbl;
    Array.fill reg.slots 0 (Array.length reg.slots) Unbound;
    reg.stale <- true;
    Queue.clear reg.runs;
    reg.last <- None;
    reg.kept <- 0;
    reg.snap_dropped <- 0;
    tel
  end

let capture f =
  if not (on ()) then (f (), empty_telemetry)
  else begin
    let saved = Domain.DLS.get reg_key in
    Domain.DLS.set reg_key (fresh_reg ());
    match f () with
    | v ->
        let tel = telemetry_of_reg (Domain.DLS.get reg_key) in
        Domain.DLS.set reg_key saved;
        (v, tel)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Domain.DLS.set reg_key saved;
        Printexc.raise_with_backtrace e bt
  end

let inject tel =
  if on () then begin
    let reg = Domain.DLS.get reg_key in
    List.iter
      (fun (k, v) ->
        match cell reg k Counter_k with
        | Counter_v c -> c.v <- c.v +. v
        | _ -> assert false)
      tel.counters;
    (* Last-writer-wins in submission order — same at every --jobs. *)
    List.iter
      (fun (k, v) ->
        match cell reg k Gauge_k with Gauge_v c -> c.v <- v | _ -> assert false)
      tel.gauges;
    (* Merged in place: the cell (and every slot naming it) stays. *)
    List.iter
      (fun (k, h) ->
        match cell reg k Dist_k with
        | Dist_v d -> d.hist <- Histogram.merge d.hist h
        | _ -> assert false)
      tel.hists;
    List.iter (push_one reg) tel.snapshots;
    reg.snap_dropped <- reg.snap_dropped + tel.snap_dropped
  end

(* Pure two-sided merge with [inject]'s semantics (counters add, gauges
   last-writer-wins with [b] the later writer, histograms merge
   bucket-wise, snapshots append) but no registry and no retention
   eviction: both sides already enforced the bound when they recorded.
   Associative, so shard telemetry folds in shard order to the same
   value whatever the worker schedule was. *)
let merge_telemetry a b =
  let merge_assoc combine xs ys =
    let rec go acc xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | (kx, vx) :: xs', (ky, vy) :: ys' ->
          let c = String.compare kx ky in
          if c < 0 then go ((kx, vx) :: acc) xs' ys
          else if c > 0 then go ((ky, vy) :: acc) xs ys'
          else go ((kx, combine vx vy) :: acc) xs' ys'
    in
    go [] xs ys
  in
  {
    snapshots = a.snapshots @ b.snapshots;
    snap_dropped = a.snap_dropped + b.snap_dropped;
    counters = merge_assoc (fun x y -> x +. y) a.counters b.counters;
    gauges = merge_assoc (fun _ y -> y) a.gauges b.gauges;
    hists = merge_assoc Histogram.merge a.hists b.hists;
  }

(* ---------------- Export ---------------- *)

(* Per cell of a layout, the (cat, name) of its counter track; split
   once per layout, not once per snapshot. *)
let tracks l =
  let cats = Array.make l.width "" and names = Array.make l.width "" in
  Array.iteri
    (fun i k ->
      let cat, name = split_key k in
      let o = l.offsets.(i) in
      match l.kinds.(i) with
      | Counter_k | Gauge_k ->
          cats.(o) <- cat;
          names.(o) <- name
      | Dist_k ->
          List.iteri
            (fun j suffix ->
              cats.(o + j) <- cat;
              names.(o + j) <- name ^ suffix)
            [ ".n"; ".p50"; ".p99"; ".max" ])
    l.keys;
  (cats, names)

(* [List.concat_map] over snapshots, handing [f] a per-layout value
   [of_layout l] that is recomputed only when the layout changes. *)
let concat_map_by_layout of_layout f snaps =
  let cache = ref None in
  List.concat_map
    (fun (s : snapshot) ->
      let v =
        match !cache with
        | Some (l, v) when l == s.layout -> v
        | _ ->
            let v = of_layout s.layout in
            cache := Some (s.layout, v);
            v
      in
      f s v)
    snaps

let to_trace_events tel =
  concat_map_by_layout tracks
    (fun (s : snapshot) (cats, names) ->
      List.init (Array.length s.cells) (fun o ->
          {
            Xc_trace.Trace.kind = Xc_trace.Trace.Counter;
            cat = cats.(o);
            name = names.(o);
            ts = s.at;
            dur = 0.;
            value = s.cells.(o);
          }))
    tel.snapshots

(* ---------------- Alert rules ---------------- *)

type alert_rule = {
  acat : string;
  aname : string;
  above : float option;
  below : float option;
}

let alert_rules : alert_rule list Atomic.t = Atomic.make []

let alert ~cat ~name ?above ?below () =
  if above = None && below = None then
    invalid_arg "Metrics.alert: at least one of ~above / ~below is required";
  let r = { acat = cat; aname = name; above; below } in
  let rec add () =
    let old = Atomic.get alert_rules in
    if not (Atomic.compare_and_set alert_rules old (old @ [ r ])) then add ()
  in
  add ()

let alerts () = Atomic.get alert_rules
let clear_alerts () = Atomic.set alert_rules []

let rule_key r = r.acat ^ "/" ^ r.aname

let rule_to_string r =
  let fmt v = Printf.sprintf "%g" v in
  rule_key r
  ^ (match r.above with Some v -> ">" ^ fmt v | None -> "")
  ^ (match r.below with Some v -> "<" ^ fmt v | None -> "")

let rule_of_string s =
  let s = String.trim s in
  let op =
    let gt = String.index_opt s '>' and lt = String.index_opt s '<' in
    match (gt, lt) with
    | Some g, Some l -> Some (min g l)
    | Some i, None | None, Some i -> Some i
    | None, None -> None
  in
  match op with
  | None ->
      Error
        (Printf.sprintf "expected CAT/NAME>VALUE or CAT/NAME<VALUE, got %S" s)
  | Some i -> (
      let key = String.trim (String.sub s 0 i) in
      let v = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      match String.index_opt key '/' with
      | None -> Error (Printf.sprintf "metric key must be CAT/NAME, got %S" key)
      | Some j -> (
          let cat = String.sub key 0 j
          and name = String.sub key (j + 1) (String.length key - j - 1) in
          if cat = "" || name = "" then
            Error (Printf.sprintf "metric key must be CAT/NAME, got %S" key)
          else
            match float_of_string_opt v with
            | Some t when Float.is_finite t ->
                if s.[i] = '>' then
                  Ok { acat = cat; aname = name; above = Some t; below = None }
                else
                  Ok { acat = cat; aname = name; above = None; below = Some t }
            | _ -> Error (Printf.sprintf "bad threshold %S in %S" v s)))

type firing = { rule : alert_rule; at : Time_ns.t; value : float }

let fired r v =
  (match r.above with Some t -> v > t | None -> false)
  || match r.below with Some t -> v < t | None -> false

(* The cell a rule tests in a layout, if its key is there: counters and
   gauges their value, histogram metrics their p99 (the tail is what
   thresholds guard). *)
let rule_cell l r =
  Option.map
    (fun i ->
      match l.kinds.(i) with
      | Counter_k | Gauge_k -> l.offsets.(i)
      | Dist_k -> l.offsets.(i) + 2)
    (index l (rule_key r))

let firings ?rules tel =
  let rules = match rules with Some r -> r | None -> alerts () in
  concat_map_by_layout
    (fun l ->
      List.filter_map (fun r -> Option.map (fun o -> (r, o)) (rule_cell l r)) rules)
    (fun (snap : snapshot) cells ->
      List.filter_map
        (fun (r, o) ->
          let v = snap.cells.(o) in
          if fired r v then Some { rule = r; at = snap.at; value = v } else None)
        cells)
    tel.snapshots

let render_firings fs =
  let buf = Buffer.create 256 in
  (* One line per rule: first firing, worst value, count — readable
     even when a threshold stays crossed for thousands of snapshots. *)
  let seen = ref [] in
  List.iter
    (fun f ->
      let key = rule_to_string f.rule in
      match List.assoc_opt key !seen with
      | Some cell ->
          let n, worst = !cell in
          let worse =
            match f.rule.above with
            | Some _ -> Float.max worst f.value
            | None -> Float.min worst f.value
          in
          cell := (n + 1, worse)
      | None -> seen := !seen @ [ (key, ref (1, f.value)) ])
    fs;
  List.iter
    (fun (key, cell) ->
      let n, worst = !cell in
      Printf.bprintf buf "ALERT %s: %d snapshot(s), worst %g\n" key n worst)
    !seen;
  Buffer.contents buf
