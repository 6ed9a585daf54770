module Trace = Xc_trace.Trace

type segment = { seg_label : string; seg_spans : int; seg_ns : float }

type chain = {
  chain_id : int;
  chain_name : string;
  chain_start : float;
  chain_total : float;
  segments : segment list;
}

type t = { chains : chain list; unattributed_ns : float }

type summary = {
  n_chains : int;
  path_ns : float;
  shares : segment list;
  sum_unattributed_ns : float;
}

let self_label = "(request-self)"
let nested_label = "(nested-request)"

(* One accumulator per request span: the per-label segment table plus
   the identity of the chain it will become. *)
type acc = {
  acc_id : int;
  acc_name : string;
  acc_start : float;
  acc_total : float;
  acc_segs : (string, (int * float) ref) Hashtbl.t;
}

type frame = {
  fr_cat : string;
  fr_end : float;
  mutable fr_self : float;
  fr_acc : acc option;  (** [Some] iff this frame is a request span *)
  fr_owner : acc option;  (** innermost enclosing request, if any *)
}

let bump tbl label spans ns =
  match Hashtbl.find_opt tbl label with
  | Some cell ->
      let c, t = !cell in
      cell := (c + spans, t +. ns)
  | None -> Hashtbl.add tbl label (ref (spans, ns))

let segments_of tbl =
  Hashtbl.fold
    (fun label cell l ->
      let c, ns = !cell in
      { seg_label = label; seg_spans = c; seg_ns = ns } :: l)
    tbl []
  |> List.sort (fun a b ->
         match compare b.seg_ns a.seg_ns with
         | 0 -> compare a.seg_label b.seg_label
         | c -> c)

let extract evs =
  (* The canonical order and nesting epsilon of [Profile.fold], so the
     three views of a trace (flamegraph, attribution, critical path)
     never disagree about parenthood. *)
  let spans = Xc_trace.Profile.sorted_spans evs in
  let accs = ref [] in
  let unattributed = ref 0. in
  let stack = ref [] in
  let pop () =
    match !stack with
    | [] -> ()
    | top :: rest ->
        (match (top.fr_acc, top.fr_owner) with
        | Some a, _ -> bump a.acc_segs self_label 1 top.fr_self
        | None, Some owner -> bump owner.acc_segs top.fr_cat 1 top.fr_self
        | None, None -> unattributed := !unattributed +. top.fr_self);
        stack := rest
  in
  let eps_for x = (1e-9 *. Float.abs x) +. 1e-6 in
  Array.iter
    (fun (s : Trace.event) ->
      let s_end = s.ts +. s.dur in
      let rec unwind () =
        match !stack with
        | top :: _ when s_end > top.fr_end +. eps_for top.fr_end ->
            pop ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      let owner =
        match !stack with
        | [] -> None
        | parent :: _ -> (
            parent.fr_self <- parent.fr_self -. s.dur;
            match parent.fr_acc with Some a -> Some a | None -> parent.fr_owner)
      in
      let acc =
        if s.cat = "request" then begin
          let a =
            {
              acc_id = int_of_float s.value;
              acc_name = s.name;
              acc_start = s.ts;
              acc_total = s.dur;
              acc_segs = Hashtbl.create 8;
            }
          in
          (* A nested request is one opaque segment of its enclosing
             chain: its whole duration is charged here, its internals
             are blamed on its own chain — so both chains telescope. *)
          (match owner with
          | Some o -> bump o.acc_segs nested_label 1 s.dur
          | None -> ());
          accs := a :: !accs;
          Some a
        end
        else None
      in
      stack :=
        { fr_cat = s.cat; fr_end = s_end; fr_self = s.dur; fr_acc = acc;
          fr_owner = owner }
        :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done;
  let chains =
    List.rev_map
      (fun a ->
        {
          chain_id = a.acc_id;
          chain_name = a.acc_name;
          chain_start = a.acc_start;
          chain_total = a.acc_total;
          segments = segments_of a.acc_segs;
        })
      !accs
    |> List.sort (fun a b ->
           match compare b.chain_total a.chain_total with
           | 0 -> (
               match compare a.chain_start b.chain_start with
               | 0 -> compare a.chain_id b.chain_id
               | c -> c)
           | c -> c)
  in
  { chains; unattributed_ns = !unattributed }

let summarize t =
  let tbl = Hashtbl.create 16 in
  let path = ref 0. in
  List.iter
    (fun c ->
      path := !path +. c.chain_total;
      List.iter (fun s -> bump tbl s.seg_label s.seg_spans s.seg_ns) c.segments)
    t.chains;
  {
    n_chains = List.length t.chains;
    path_ns = !path;
    shares = segments_of tbl;
    sum_unattributed_ns = t.unattributed_ns;
  }

let of_events evs = summarize (extract evs)

let share s label =
  if s.path_ns <= 0. then 0.
  else
    match List.find_opt (fun seg -> seg.seg_label = label) s.shares with
    | Some seg -> seg.seg_ns /. s.path_ns
    | None -> 0.

let fmt_ns = Xc_trace.Profile.fmt_ns

let render_chain c =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "request %s#%d  total %s\n" c.chain_name c.chain_id
    (fmt_ns c.chain_total);
  List.iter
    (fun s ->
      let pct =
        if c.chain_total > 0. then 100. *. s.seg_ns /. c.chain_total else 0.
      in
      Printf.bprintf buf "  %-18s %4dx %10s %6.1f%%\n" s.seg_label s.seg_spans
        (fmt_ns s.seg_ns) pct)
    c.segments;
  Buffer.contents buf

let render ?top s =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "critical path: %d request(s), %s total\n" s.n_chains
    (fmt_ns s.path_ns);
  let shares =
    match top with
    | None -> s.shares
    | Some n -> List.filteri (fun i _ -> i < n) s.shares
  in
  List.iter
    (fun seg ->
      Printf.bprintf buf "  %-18s %6dx %10s %6.1f%%\n" seg.seg_label
        seg.seg_spans (fmt_ns seg.seg_ns)
        (100. *. share s seg.seg_label))
    shares;
  if s.sum_unattributed_ns > 0. then
    Printf.bprintf buf "  (outside any request: %s)\n"
      (fmt_ns s.sum_unattributed_ns);
  Buffer.contents buf
