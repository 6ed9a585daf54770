let fmt_ns ns =
  let a = Float.abs ns in
  if a < 1e3 then Printf.sprintf "%.0fns" ns
  else if a < 1e6 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else if a < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.3fs" (ns /. 1e9)

(* Collapsed-stack frames are separated by ';' and stacks end at the
   first ' ', so neither may appear inside a frame. *)
let frame_escape s =
  String.map (fun c -> match c with ';' -> ':' | ' ' -> '_' | _ -> c) s

let frame_of (ev : Trace.event) =
  frame_escape ev.cat ^ ";" ^ frame_escape ev.name

(* ---------------- Folding span timelines into stacks ---------------- *)

(* An open span on the fold stack: the stack path that leads to it,
   where it ends, and how much self-time it still owns (children
   subtract from it as they are discovered). *)
type open_span = {
  path : string;
  end_ts : float;
  mutable self : float;
}

let fold ?root evs =
  let spans =
    List.filter (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.dur > 0.) evs
  in
  (* Sort by start time; at equal starts the longer span is the
     parent, and (cat,name) breaks the remaining ties so the fold is
     deterministic regardless of input order. *)
  let spans =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        match compare a.ts b.ts with
        | 0 -> (
            match compare b.dur a.dur with
            | 0 -> compare (a.cat, a.name) (b.cat, b.name)
            | c -> c)
        | c -> c)
      spans
  in
  let out : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let add path self =
    if self > 0. then
      match Hashtbl.find_opt out path with
      | Some r -> r := !r +. self
      | None -> Hashtbl.add out path (ref self)
  in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | top :: rest ->
        add top.path top.self;
        stack := rest
  in
  let eps_for x = (1e-9 *. Float.abs x) +. 1e-6 in
  List.iter
    (fun (s : Trace.event) ->
      let s_end = s.ts +. s.dur in
      (* Pop anything this span does not nest inside.  Input is sorted
         by start time, so only the end boundary needs checking. *)
      let rec unwind () =
        match !stack with
        | top :: _ when s_end > top.end_ts +. eps_for top.end_ts ->
            pop ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      let path =
        match !stack with
        | [] -> frame_of s
        | parent :: _ ->
            parent.self <- parent.self -. s.dur;
            parent.path ^ ";" ^ frame_of s
      in
      stack := { path; end_ts = s_end; self = s.dur } :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done;
  let prefix = match root with None -> "" | Some r -> frame_escape r ^ ";" in
  Hashtbl.fold (fun path r acc -> (prefix ^ path, !r) :: acc) out []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_folded tracks =
  let buf = Buffer.create 4096 in
  let rows =
    List.concat_map (fun (name, evs) -> fold ~root:name evs) tracks
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (path, self) ->
      (* Collapsed-stack counts are integers; ours are nanoseconds of
         self-time.  Sub-nanosecond residue rounds away. *)
      if self >= 0.5 then Printf.bprintf buf "%s %.0f\n" path self)
    rows;
  Buffer.contents buf

(* ---------------- Rescaling sampled aggregates ---------------- *)

let rescale ~streams evs =
  if streams = [] then evs
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Trace.Stream.t) ->
        Hashtbl.replace tbl (s.cat, s.name) (Trace.Stream.scale s))
      streams;
    List.map
      (fun (ev : Trace.event) ->
        match ev.kind with
        | Trace.Span -> (
            match Hashtbl.find_opt tbl (ev.cat, ev.name) with
            | Some f when f <> 1. -> { ev with dur = ev.dur *. f }
            | _ -> ev)
        | _ -> ev)
      evs
  end

let totals_by_cat ?(streams = []) evs =
  let evs = rescale ~streams evs in
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.kind = Trace.Span then
        match Hashtbl.find_opt tbl ev.cat with
        | Some r -> r := !r +. ev.dur
        | None -> Hashtbl.add tbl ev.cat (ref ev.dur))
    evs;
  Hashtbl.fold (fun cat r acc -> (cat, !r) :: acc) tbl []
  |> List.sort (fun (ca, ta) (cb, tb) ->
         match compare tb ta with 0 -> compare ca cb | c -> c)

let render_streams streams =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-18s %-26s %10s %10s %10s %8s\n" "category" "name"
    "seen" "kept" "skipped" "scale";
  List.iter
    (fun (s : Trace.Stream.t) ->
      Printf.bprintf buf "%-18s %-26s %10d %10d %10d %8.2f\n" s.cat s.name
        s.seen s.kept (Trace.Stream.skipped s) (Trace.Stream.scale s))
    streams;
  if streams = [] then Buffer.add_string buf "(no sampled streams)\n";
  Buffer.contents buf

(* ---------------- Per-request attribution ---------------- *)

type request = {
  id : int;
  name : string;
  start : float;
  total : float;
  by_cat : (string * int * float) list;
  accounted : float;
}

let requests evs =
  let req_spans =
    List.filter
      (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.cat = "request")
      evs
  in
  let children =
    List.filter
      (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.cat <> "request")
      evs
  in
  let eps = 1e-6 in
  let of_span (r : Trace.event) =
    let fin = r.ts +. r.dur in
    let tbl : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (ev : Trace.event) ->
        if ev.ts >= r.ts -. eps && ev.ts < fin -. eps then
          match Hashtbl.find_opt tbl ev.cat with
          | Some cell ->
              let c, t = !cell in
              cell := (c + 1, t +. ev.dur)
          | None -> Hashtbl.add tbl ev.cat (ref (1, ev.dur)))
      children;
    let by_cat =
      Hashtbl.fold (fun cat cell acc -> (cat, fst !cell, snd !cell) :: acc) tbl []
      |> List.sort (fun (ca, _, ta) (cb, _, tb) ->
             match compare tb ta with 0 -> compare ca cb | c -> c)
    in
    let accounted = List.fold_left (fun acc (_, _, t) -> acc +. t) 0. by_cat in
    {
      id = int_of_float r.value;
      name = r.name;
      start = r.ts;
      total = r.dur;
      by_cat;
      accounted;
    }
  in
  List.map of_span req_spans
  |> List.sort (fun a b ->
         match compare b.total a.total with
         | 0 -> ( match compare a.start b.start with 0 -> compare a.id b.id | c -> c)
         | c -> c)

let slowest ~k evs =
  let all = requests evs in
  List.filteri (fun i _ -> i < k) all

(* ---------------- Exact self-time tail attribution ---------------- *)

type attributed_request = {
  req_id : int;
  req_name : string;
  req_start : float;
  req_total : float;
  req_self : float;
  req_mech : (string * int * float) list;
}

type attribution = {
  areqs : attributed_request list;
  unattributed_ns : float;
  total_self_ns : float;
}

(* Mutable per-request accumulator filled in while sweeping. *)
type areq_acc = {
  acc_id : int;
  acc_name : string;
  acc_start : float;
  acc_total : float;
  mutable acc_self : float;
  acc_mech : (string, (int * float) ref) Hashtbl.t;
}

(* An open span on the attribution stack.  [oa_req] is set iff the
   span itself is a request; [oa_owner] is the nearest enclosing
   request (exclusive), fixed at push time. *)
type open_attr = {
  oa_cat : string;
  oa_end : float;
  mutable oa_self : float;
  oa_req : areq_acc option;
  oa_owner : areq_acc option;
}

let attribute evs =
  let spans =
    List.filter (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.dur > 0.) evs
  in
  (* Same canonical order and nesting rule as [fold], so the two views
     of a trace never disagree about parenthood. *)
  let spans =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        match compare a.ts b.ts with
        | 0 -> (
            match compare b.dur a.dur with
            | 0 -> compare (a.cat, a.name) (b.cat, b.name)
            | c -> c)
        | c -> c)
      spans
  in
  let accs = ref [] in
  let unattributed = ref 0. in
  let total_self = ref 0. in
  let bump tbl cat self =
    match Hashtbl.find_opt tbl cat with
    | Some cell ->
        let c, t = !cell in
        cell := (c + 1, t +. self)
    | None -> Hashtbl.add tbl cat (ref (1, self))
  in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | top :: rest ->
        (match (top.oa_req, top.oa_owner) with
        | Some a, _ -> a.acc_self <- top.oa_self
        | None, Some owner -> bump owner.acc_mech top.oa_cat top.oa_self
        | None, None -> unattributed := !unattributed +. top.oa_self);
        stack := rest
  in
  let eps_for x = (1e-9 *. Float.abs x) +. 1e-6 in
  List.iter
    (fun (s : Trace.event) ->
      let s_end = s.ts +. s.dur in
      let rec unwind () =
        match !stack with
        | top :: _ when s_end > top.oa_end +. eps_for top.oa_end ->
            pop ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      let owner =
        match !stack with
        | [] ->
            (* Root span: its duration joins the traced total.  Every
               descendant's self-time telescopes out of it, so the sum
               of all buckets below equals the sum of root durations —
               an exact partition.  For that identity to hold, negative
               self (overlapping siblings) must be kept, not dropped
               the way [fold] drops it. *)
            total_self := !total_self +. s.dur;
            None
        | parent :: _ -> (
            parent.oa_self <- parent.oa_self -. s.dur;
            match parent.oa_req with Some a -> Some a | None -> parent.oa_owner)
      in
      let acc =
        if s.cat = "request" then begin
          let a =
            {
              acc_id = int_of_float s.value;
              acc_name = s.name;
              acc_start = s.ts;
              acc_total = s.dur;
              acc_self = s.dur;
              acc_mech = Hashtbl.create 8;
            }
          in
          accs := a :: !accs;
          Some a
        end
        else None
      in
      stack :=
        { oa_cat = s.cat; oa_end = s_end; oa_self = s.dur; oa_req = acc;
          oa_owner = owner }
        :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done;
  let areqs =
    List.rev_map
      (fun a ->
        let mech =
          Hashtbl.fold
            (fun cat cell l -> (cat, fst !cell, snd !cell) :: l)
            a.acc_mech []
          |> List.sort (fun (ca, _, ta) (cb, _, tb) ->
                 match compare tb ta with 0 -> compare ca cb | c -> c)
        in
        {
          req_id = a.acc_id;
          req_name = a.acc_name;
          req_start = a.acc_start;
          req_total = a.acc_total;
          req_self = a.acc_self;
          req_mech = mech;
        })
      !accs
    |> List.sort (fun a b ->
           match compare b.req_total a.req_total with
           | 0 -> (
               match compare a.req_start b.req_start with
               | 0 -> compare a.req_id b.req_id
               | c -> c)
           | c -> c)
  in
  { areqs; unattributed_ns = !unattributed; total_self_ns = !total_self }

let request_totals att = List.map (fun r -> r.req_total) att.areqs

(* ---------------- Tail cuts over an attribution ---------------- *)

type tail = {
  label : string;
  pct : float;
  cut_ns : float;
  n_requests : int;
  n_tail : int;
  tail : attributed_request list;
  tail_mech : (string * int * float) list;
  tail_self_ns : float;
  tail_total_ns : float;
}

let self_frame = "(request-self)"

let tail_of ?(label = "") ~pct ~cut_ns att =
  let tail = List.filter (fun r -> r.req_total >= cut_ns) att.areqs in
  let tbl : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (cat, n, ns) ->
          match Hashtbl.find_opt tbl cat with
          | Some cell ->
              let c, t = !cell in
              cell := (c + n, t +. ns)
          | None -> Hashtbl.add tbl cat (ref (n, ns)))
        r.req_mech)
    tail;
  let tail_mech =
    Hashtbl.fold (fun cat cell l -> (cat, fst !cell, snd !cell) :: l) tbl []
    |> List.sort (fun (ca, _, ta) (cb, _, tb) ->
           match compare tb ta with 0 -> compare ca cb | c -> c)
  in
  {
    label;
    pct;
    cut_ns;
    n_requests = List.length att.areqs;
    n_tail = List.length tail;
    tail;
    tail_mech;
    tail_self_ns = List.fold_left (fun a r -> a +. r.req_self) 0. tail;
    tail_total_ns = List.fold_left (fun a r -> a +. r.req_total) 0. tail;
  }

(* The one percentile cut: the floor of the bucket holding the rank,
   so every request at or above the rank is selected by [>=]. *)
let tail_at ?label ~pct att =
  match request_totals att with
  | [] -> None
  | totals ->
      let cut_ns = Histogram.percentile_floor (Histogram.of_samples totals) pct in
      Some (tail_of ?label ~pct ~cut_ns att)

let render_tail ?(slowest = 0) t =
  let buf = Buffer.create 1024 in
  if t.label <> "" then Printf.bprintf buf "tail attribution: %s\n" t.label;
  Printf.bprintf buf "p%g cut at %s: %d of %d requests at or above\n" t.pct
    (fmt_ns t.cut_ns) t.n_tail t.n_requests;
  if t.n_tail = 0 then Buffer.add_string buf "(no requests above the cut)\n"
  else begin
    let per = float_of_int t.n_tail in
    let attributed =
      t.tail_self_ns
      +. List.fold_left (fun a (_, _, ns) -> a +. ns) 0. t.tail_mech
    in
    let share ns = if attributed > 0. then 100. *. ns /. attributed else 0. in
    Printf.bprintf buf "%-18s %8s %12s %12s %7s\n" "mechanism" "spans" "total"
      "mean/req" "share";
    List.iter
      (fun (cat, n, ns) ->
        Printf.bprintf buf "%-18s %8d %12s %12s %6.1f%%\n" cat n (fmt_ns ns)
          (fmt_ns (ns /. per))
          (share ns))
      t.tail_mech;
    Printf.bprintf buf "%-18s %8s %12s %12s %6.1f%%\n" self_frame ""
      (fmt_ns t.tail_self_ns)
      (fmt_ns (t.tail_self_ns /. per))
      (share t.tail_self_ns);
    Printf.bprintf buf "tail window time: %s total, %s mean per request\n"
      (fmt_ns t.tail_total_ns)
      (fmt_ns (t.tail_total_ns /. per));
    if slowest > 0 then begin
      Printf.bprintf buf "\nslowest %d tail requests:\n" (min slowest t.n_tail);
      List.iteri
        (fun i r ->
          if i < slowest then begin
            Printf.bprintf buf "#%d %s: %s end-to-end (starts at %s)\n" r.req_id
              r.req_name (fmt_ns r.req_total) (fmt_ns r.req_start);
            let pct ns =
              if r.req_total > 0. then 100. *. ns /. r.req_total else 0.
            in
            List.iter
              (fun (cat, count, ns) ->
                Printf.bprintf buf "  %-18s x%-5d %10s %6.1f%%\n" cat count
                  (fmt_ns ns) (pct ns))
              r.req_mech;
            Printf.bprintf buf "  %-18s %s%10s %6.1f%%\n" "(self)" "      "
              (fmt_ns r.req_self) (pct r.req_self)
          end)
        t.tail
    end
  end;
  Buffer.contents buf

let render_slowest ?(k = 3) evs =
  let all = requests evs in
  let n = List.length all in
  let buf = Buffer.create 1024 in
  if n = 0 then Buffer.add_string buf "(no request spans in trace)\n"
  else begin
    Printf.bprintf buf "slowest %d of %d requests:\n" (min k n) n;
    List.iteri
      (fun i r ->
        if i < k then begin
          Printf.bprintf buf "#%d %s: %s end-to-end (starts at %s)\n" r.id
            r.name (fmt_ns r.total) (fmt_ns r.start);
          let pct ns = if r.total > 0. then 100. *. ns /. r.total else 0. in
          List.iter
            (fun (cat, count, ns) ->
              Printf.bprintf buf "  %-18s x%-5d %10s %6.1f%%\n" cat count
                (fmt_ns ns) (pct ns))
            r.by_cat;
          let other = r.total -. r.accounted in
          if Float.abs other > 0.5 then
            Printf.bprintf buf "  %-18s %s%10s %6.1f%%\n" "(unattributed)"
              "      " (fmt_ns other) (pct other)
        end)
      all
  end;
  Buffer.contents buf
