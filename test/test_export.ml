(* Byte-identity oracles for the trace writers.  The Printf-based
   writers below are the formats' reference definition: [Export] and
   [Profile] must produce exactly their bytes on any event list —
   hostile category/name characters, several tracks, dyadic ties,
   negatives, NaN and infinities included — so that every committed
   artifact golden stays valid whatever the writers are made of.  The
   parser side gets the fuzzing every text parser here has: arbitrary
   strings and truncated real artifacts must parse to [Ok] or [Error],
   never raise. *)

module Trace = Xc_trace.Trace
module Export = Xc_trace.Export
module Profile = Xc_trace.Profile

(* ---------------- reference writers ---------------- *)

module Ref = struct
  let sanitize s =
    String.map
      (fun c ->
        match c with '"' | '\\' | ',' | '\n' | '\r' -> ';' | _ -> c)
      s

  let chrome_event buf ~tid (ev : Trace.event) =
    let us v = v /. 1e3 in
    match ev.kind with
    | Trace.Span ->
        if ev.value <> 0. then
          Printf.bprintf buf
            "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"value\":%.6f}}"
            tid (sanitize ev.cat) (sanitize ev.name) (us ev.ts) (us ev.dur)
            ev.value
        else
          Printf.bprintf buf
            "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"dur\":%.6f}"
            tid (sanitize ev.cat) (sanitize ev.name) (us ev.ts) (us ev.dur)
    | Trace.Instant ->
        Printf.bprintf buf
          "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f}"
          tid (sanitize ev.cat) (sanitize ev.name) (us ev.ts)
    | Trace.Counter ->
        Printf.bprintf buf
          "{\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"args\":{\"value\":%.6f}}"
          tid (sanitize ev.cat) (sanitize ev.name) (us ev.ts) ev.value

  let to_chrome ?(dropped = 0) tracks =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    let first = ref true in
    let emit f =
      if !first then first := false else Buffer.add_string buf ",\n";
      f ()
    in
    List.iteri
      (fun i (name, _) ->
        emit (fun () ->
            Printf.bprintf buf
              "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
              (i + 1) (sanitize name)))
      tracks;
    List.iteri
      (fun i (_, evs) ->
        List.iter (fun ev -> emit (fun () -> chrome_event buf ~tid:(i + 1) ev)) evs)
      tracks;
    Printf.bprintf buf
      "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":%d}}\n" dropped;
    Buffer.contents buf

  let to_csv tracks =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "track,kind,cat,name,ts_ns,dur_ns,value\n";
    List.iter
      (fun (track, evs) ->
        let track = sanitize track in
        List.iter
          (fun (ev : Trace.event) ->
            Printf.bprintf buf "%s,%s,%s,%s,%.3f,%.3f,%.6f\n" track
              (Trace.kind_to_string ev.kind)
              (sanitize ev.cat) (sanitize ev.name) ev.ts ev.dur ev.value)
          evs)
      tracks;
    Buffer.contents buf

  let to_tails_csv (tails : Profile.tail list) =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf Export.tails_csv_header;
    Buffer.add_char buf '\n';
    List.iter
      (fun (t : Profile.tail) ->
        let label = sanitize t.label in
        let row mech spans ns =
          Printf.bprintf buf "%s,%.3f,%.3f,%d,%d,%s,%d,%.3f\n" label t.pct
            t.cut_ns t.n_requests t.n_tail (sanitize mech) spans ns
        in
        List.iter (fun (cat, n, ns) -> row cat n ns) t.tail_mech;
        row Profile.self_frame 0 t.tail_self_ns;
        row "(window-total)" 0 t.tail_total_ns)
      tails;
    Buffer.contents buf

  let frame_escape s =
    String.map (fun c -> match c with ';' -> ':' | ' ' -> '_' | _ -> c) s

  let frame_of (ev : Trace.event) =
    frame_escape ev.cat ^ ";" ^ frame_escape ev.name

  type open_span = { path : string; end_ts : float; mutable self : float }

  let fold ?root evs =
    let spans =
      List.filter
        (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.dur > 0.)
        evs
    in
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
    let prefix =
      match root with None -> "" | Some r -> frame_escape r ^ ";"
    in
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
        if self >= 0.5 then Printf.bprintf buf "%s %.0f\n" path self)
      rows;
    Buffer.contents buf
end

(* ---------------- generators ---------------- *)

(* Floats the writers meet in practice (timestamps on a nanosecond
   grid, fractional gauges) and the ones that break naive fixed-point
   code: exact decimal-rounding ties k/2^j, values a hair either side
   of a tie, negatives that round to "-0", signed zero, NaN, the
   infinities, magnitudes past 2^52 and arbitrary bit patterns. *)
let gen_float =
  let open QCheck.Gen in
  frequency
    [
      (4, float_bound_inclusive 1e7);
      (2, map (fun k -> float_of_int k) (int_range 0 100_000_000));
      ( 3,
        map2
          (fun k j -> float_of_int k /. Float.of_int (1 lsl j))
          (int_range 0 10_000_000) (int_range 1 30) );
      ( 1,
        map2
          (fun k up ->
            let x = float_of_int k /. 128. in
            if up then Float.succ x else Float.pred x)
          (int_range 0 1_000_000) bool );
      (1, map (fun x -> -.x) (float_bound_inclusive 1e4));
      (1, map (fun e -> -.Float.pow 10. (-.float_of_int e)) (int_range 1 12));
      ( 1,
        oneofl
          [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 0.5; 1.5;
            2.5; 0.0005; 0.0015; 1e-7; 4503599627370496.; 1e20; max_float;
            min_float; 5e-324 ] );
      (1, map Int64.float_of_bits ui64);
    ]

(* Category and name pools mixing real identifiers with every byte the
   writers rewrite ('"' '\\' ',' CR LF for the CSV/JSON sanitiser, ';'
   and ' ' for the folded frame escape) and frames that only collide
   once escaped ("a b" vs "a_b"). *)
let gen_ident =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        oneofl
          [ "syscall-entry"; "request"; "net.hop"; "a b"; "a_b"; "x;y"; "x:y";
            "mode-switch"; "" ] );
      ( 1,
        string_size
          ~gen:(oneofl [ 'a'; 'b'; '"'; '\\'; ','; '\n'; '\r'; ';'; ' '; '{'; '\t' ])
          (int_range 0 6) );
    ]

let gen_event =
  let open QCheck.Gen in
  let* kind =
    frequency
      [ (6, pure Trace.Span); (1, pure Trace.Instant); (2, pure Trace.Counter) ]
  in
  let* cat = gen_ident and* name = gen_ident in
  let* ts = gen_float and* dur = gen_float and* value = gen_float in
  pure { Trace.kind; cat; name; ts; dur; value }

(* Spans on a small integer grid so that nesting, equal starts and
   shared stacks actually occur; every few spans take an arbitrary
   float instead. *)
let gen_nested_event =
  let open QCheck.Gen in
  let* cat = oneofl [ "request"; "syscall-work"; "net.hop"; "a b"; "a_b" ]
  and* name = oneofl [ "httpd"; "send"; "x;y"; "x:y" ] in
  let* ts = map float_of_int (int_range 0 60)
  and* dur = map float_of_int (int_range 0 40)
  and* frac = frequency [ (4, pure 0.); (1, gen_float) ] in
  pure
    { Trace.kind = Trace.Span; cat; name; ts; dur = dur +. frac; value = 0. }

let gen_tracks gen_ev =
  let open QCheck.Gen in
  list_size (int_range 0 4)
    (pair gen_ident (list_size (int_range 0 40) gen_ev))

let print_tracks tracks =
  String.concat "\n"
    (List.map
       (fun (name, evs) ->
         Printf.sprintf "track %S:\n%s" name
           (String.concat "\n"
              (List.map
                 (fun (e : Trace.event) ->
                   Printf.sprintf "  %s %S/%S ts=%h dur=%h v=%h"
                     (Trace.kind_to_string e.kind) e.cat e.name e.ts e.dur
                     e.value)
                 evs)))
       tracks)

let arb_tracks gen_ev = QCheck.make ~print:print_tracks (gen_tracks gen_ev)

let same_bytes ~what expected got =
  if String.equal expected got then true
  else
    QCheck.Test.fail_reportf "%s differs from the reference:\nwant %S\ngot  %S"
      what expected got

(* ---------------- writer properties ---------------- *)

(* Values at the edge of the integer fast path: 2^52 / 10^d, one ulp
   either side, for each precision. *)
let fast_path_edges =
  List.concat_map
    (fun d ->
      let x = 0x1p52 /. Float.pow 10. (float_of_int d) in
      [ (d, Float.pred x); (d, x); (d, Float.succ x) ])
    [ 0; 3; 6 ]

let fixed_to_string d x =
  Xc_trace.Writer.render (fun w -> Xc_trace.Writer.fixed w d x)

let fixed_matches (d, x) =
  let want =
    match d with
    | 0 -> Printf.sprintf "%.0f" x
    | 3 -> Printf.sprintf "%.3f" x
    | _ -> Printf.sprintf "%.6f" x
  in
  let got = fixed_to_string d x in
  String.equal want got
  || QCheck.Test.fail_reportf "%%.%df of %h: printf %S, writer %S" d x want got

let fixed_prop =
  QCheck.Test.make ~name:"Writer.fixed = Printf %.<d>f" ~count:20_000
    (QCheck.make
       ~print:(fun (d, x) -> Printf.sprintf "d=%d x=%h" d x)
       QCheck.Gen.(pair (oneofl [ 0; 3; 6 ]) gen_float))
    fixed_matches

let test_fixed_cases () =
  List.iter
    (fun c -> ignore (fixed_matches c))
    (fast_path_edges
    @ List.concat_map
        (fun d ->
          List.map
            (fun x -> (d, x))
            [ 0.; -0.; -1e-9; -1.; -0.5; 0.5; 1.5; 2.5; 1. /. 128.; 3. /. 128.;
              0.0005; 0.0015; 0.0000005; 0.0000015; 1e-300; 5e-324; 1e15;
              1e20; Float.nan; -.Float.nan; Float.infinity;
              Float.neg_infinity; max_float ])
        [ 0; 3; 6 ]);
  Alcotest.(check string) "-1e-9 keeps its sign" "-0.000000"
    (fixed_to_string 6 (-1e-9));
  Alcotest.(check string) "exact dyadic tie to even" "0.008"
    (fixed_to_string 3 (1. /. 128.))

let chrome_prop =
  QCheck.Test.make ~name:"to_chrome = Printf reference" ~count:400
    (QCheck.pair (arb_tracks gen_event) QCheck.small_nat)
    (fun (tracks, dropped) ->
      same_bytes ~what:"chrome"
        (Ref.to_chrome ~dropped tracks)
        (Export.to_chrome ~dropped tracks))

let csv_prop =
  QCheck.Test.make ~name:"to_csv = Printf reference" ~count:400
    (arb_tracks gen_event)
    (fun tracks ->
      same_bytes ~what:"csv" (Ref.to_csv tracks) (Export.to_csv tracks))

let fold_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (pa, sa) (pb, sb) ->
         String.equal pa pb
         && Int64.equal (Int64.bits_of_float sa) (Int64.bits_of_float sb))
       a b

let fold_prop =
  QCheck.Test.make ~name:"fold and to_folded = Printf reference" ~count:400
    (arb_tracks
       QCheck.Gen.(
         frequency [ (5, gen_nested_event); (1, gen_event) ]))
    (fun tracks ->
      List.iter
        (fun (root, evs) ->
          if not (fold_equal (Ref.fold evs) (Profile.fold evs)) then
            QCheck.Test.fail_report "fold without root differs";
          if not (fold_equal (Ref.fold ~root evs) (Profile.fold ~root evs))
          then QCheck.Test.fail_report "fold with root differs")
        tracks;
      same_bytes ~what:"folded" (Ref.to_folded tracks) (Export.to_folded tracks))

let gen_tail =
  let open QCheck.Gen in
  let* label = gen_ident and* pct = gen_float and* cut_ns = gen_float in
  let* n_requests = int_range 0 100_000 and* n_tail = int_range 0 1000 in
  let* tail_mech =
    list_size (int_range 0 5) (triple gen_ident (int_range 0 10_000) gen_float)
  in
  let* tail_self_ns = gen_float and* tail_total_ns = gen_float in
  pure
    { Profile.label; pct; cut_ns; n_requests; n_tail; tail = []; tail_mech;
      tail_self_ns; tail_total_ns }

let tails_prop =
  QCheck.Test.make ~name:"to_tails_csv = Printf reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4) gen_tail))
    (fun tails ->
      same_bytes ~what:"tails" (Ref.to_tails_csv tails)
        (Export.to_tails_csv tails))

(* ---------------- parser fuzzing ---------------- *)

let never_raises s =
  match Export.events_of_string s with Ok _ | Error _ -> true

let events_fuzz_prop =
  QCheck.Test.make ~name:"Export.events_of_string never raises" ~count:500
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             (2, string_size ~gen:printable (int_range 0 200));
             (1, string_size ~gen:char (int_range 0 200));
             ( 2,
               map
                 (fun s -> "{" ^ s)
                 (string_size
                    ~gen:(oneofl [ '"'; ':'; ','; 'p'; 'h'; 't'; 's'; 'X'; '1'; '.'; 'e'; '-'; '\n'; '{'; '}' ])
                    (int_range 0 120)) );
           ]))
    never_raises

(* A real artifact of each format, cut at every kind of place: inside
   a key, a number, a quoted string, between lines. *)
let artifact_truncation_prop =
  let artifacts =
    lazy
      (let evs =
         [
           { Trace.kind = Trace.Span; cat = "request"; name = "httpd"; ts = 0.;
             dur = 1250.5; value = 7. };
           { Trace.kind = Trace.Span; cat = "syscall-entry"; name = "trap";
             ts = 10.; dur = 475.; value = 0. };
           { Trace.kind = Trace.Instant; cat = "mode-switch"; name = "u->k";
             ts = 12.; dur = 0.; value = 0. };
           { Trace.kind = Trace.Counter; cat = "platform"; name = "in-flight";
             ts = 20.; dur = 0.; value = 0.039016 };
         ]
       in
       let tracks = [ ("a", evs); ("b", evs) ] in
       [| Export.to_chrome ~dropped:3 tracks; Export.to_csv tracks |])
  in
  QCheck.Test.make ~name:"events_of_string never raises on truncated artifacts"
    ~count:400
    QCheck.(pair bool (float_bound_inclusive 1.))
    (fun (chrome, frac) ->
      let s = (Lazy.force artifacts).(if chrome then 0 else 1) in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      never_raises (String.sub s 0 (min cut (String.length s))))

let suites =
  [
    ( "trace.writers",
      Alcotest.test_case "fixed-point edge cases" `Quick test_fixed_cases
      :: List.map QCheck_alcotest.to_alcotest
           [ fixed_prop; chrome_prop; csv_prop; fold_prop; tails_prop ] );
    ( "trace.parse-fuzz",
      List.map QCheck_alcotest.to_alcotest
        [ events_fuzz_prop; artifact_truncation_prop ] );
  ]
