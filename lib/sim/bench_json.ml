(* Reader/comparator for the BENCH_sim.json artifact the bench harness
   writes (schema v2/v3, see docs/PERF.md).  Same policy as the trace
   parsers: naive field extraction over the exact format we ourselves
   write — no general JSON parser needed (or allowed — no new
   dependencies).  Top-level fields all precede the "experiments"
   array, so the first occurrence of a key is the top-level one. *)

type summary = {
  git : string;
  schema_version : int;
  jobs : int;
  total_wall_s : float;
  total_events : int;
  events_per_sec : float;
}

let find_raw_field s key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and slen = String.length s in
  let rec search i =
    if i + plen > slen then None
    else if String.sub s i plen = pat then begin
      let start = ref (i + plen) in
      while !start < slen && (s.[!start] = ' ' || s.[!start] = '\t') do
        incr start
      done;
      Some !start
    end
    else search (i + 1)
  in
  search 0

let find_number s key =
  match find_raw_field s key with
  | None -> None
  | Some start ->
      let slen = String.length s in
      let stop = ref start in
      while
        !stop < slen
        &&
        match s.[!stop] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr stop
      done;
      float_of_string_opt (String.sub s start (!stop - start))

let find_string s key =
  match find_raw_field s key with
  | None -> None
  | Some start ->
      let slen = String.length s in
      if start >= slen || s.[start] <> '"' then None
      else
        let vstart = start + 1 in
        Option.map
          (fun stop -> String.sub s vstart (stop - vstart))
          (String.index_from_opt s vstart '"')

let of_string data =
  let num key =
    match find_number data key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key)
  in
  match num "schema_version" with
  | Error _ ->
      Error
        "missing schema_version (schema v1 artifact?) — refresh with a \
         current bench run"
  | Ok sv when int_of_float sv < 2 ->
      Error
        (Printf.sprintf "schema_version %d < 2 — refresh the artifact"
           (int_of_float sv))
  | Ok sv -> (
      match
        (num "jobs", num "total_wall_s", num "total_events", num "events_per_sec")
      with
      | Ok jobs, Ok wall, Ok events, Ok eps ->
          Ok
            {
              git = Option.value ~default:"unknown" (find_string data "git");
              schema_version = int_of_float sv;
              jobs = int_of_float jobs;
              total_wall_s = wall;
              total_events = int_of_float events;
              events_per_sec = eps;
            }
      | (Error _ as e), _, _, _
      | _, (Error _ as e), _, _
      | _, _, (Error _ as e), _
      | _, _, _, (Error _ as e) ->
          (match e with Error m -> Error m | Ok _ -> assert false))

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> ( match of_string data with Ok s -> Ok s | Error m -> Error (path ^ ": " ^ m))
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated file")

(* ---------------- Regression comparison ---------------- *)

type verdict = {
  metric : string;
  baseline_v : float;
  current_v : float;
  change_pct : float;  (** (current - baseline) / baseline * 100 *)
  regressed : bool;
  fresh : bool;
}

let default_threshold_pct = 3.

let check ?(threshold_pct = default_threshold_pct) ~baseline ~current () =
  (* A zero baseline has no meaningful percentage: dividing would give
     +0.0% for ANY current value, so a metric appearing from nothing
     would print "ok" forever and could never regress.  Flag it as a
     fresh/baseline-zero verdict instead — visible, never silently
     green — and leave [regressed] to the caller's eyes (a metric that
     just came into existence has no trend to regress against). *)
  let verdict metric ~baseline_v ~current_v ~regresses =
    if baseline_v = 0. && current_v <> 0. then
      {
        metric;
        baseline_v;
        current_v;
        change_pct = Float.nan;
        regressed = false;
        fresh = true;
      }
    else
      let change =
        if baseline_v <> 0. then
          (current_v -. baseline_v) /. baseline_v *. 100.
        else 0.
      in
      {
        metric;
        baseline_v;
        current_v;
        change_pct = change;
        regressed = regresses change;
        fresh = false;
      }
  in
  [
    (* Throughput regresses downward. *)
    verdict "events_per_sec" ~baseline_v:baseline.events_per_sec
      ~current_v:current.events_per_sec
      ~regresses:(fun change -> change < -.threshold_pct);
    (* Wall clock regresses upward. *)
    verdict "total_wall_s" ~baseline_v:baseline.total_wall_s
      ~current_v:current.total_wall_s
      ~regresses:(fun change -> change > threshold_pct);
  ]

let regressed verdicts = List.exists (fun v -> v.regressed) verdicts

let render ?(threshold_pct = default_threshold_pct) ~baseline ~current verdicts =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "bench check: baseline %s (jobs %d) vs current %s (jobs %d)\n"
    baseline.git baseline.jobs current.git current.jobs;
  if baseline.jobs <> current.jobs then
    Buffer.add_string buf
      "warning: jobs differ between runs; wall-clock comparison is not \
       apples-to-apples\n";
  List.iter
    (fun v ->
      if v.fresh then
        Printf.bprintf buf "  %-16s %14.1f -> %14.1f  %7s  NEW (baseline 0)\n"
          v.metric v.baseline_v v.current_v "--"
      else
        Printf.bprintf buf "  %-16s %14.1f -> %14.1f  %+6.1f%%  %s\n" v.metric
          v.baseline_v v.current_v v.change_pct
          (if v.regressed then "REGRESSED" else "ok"))
    verdicts;
  Printf.bprintf buf "result: %s (threshold %.1f%%)\n"
    (if regressed verdicts then "REGRESSION" else "OK")
    threshold_pct;
  Buffer.contents buf

(* ---------------- Per-experiment records ---------------- *)

(* Defined last: [events_per_sec]/[wall_s] would otherwise shadow the
   [summary] field labels above. *)
type experiment = {
  name : string;
  wall_s : float;
  events : int;
  events_per_sec : float;
  spec : string option;
}

(* The escaped-string reader for the embedded "spec" field (schema v3):
   unlike {!find_string} it honours backslash escapes, because spec
   text is multi-line (every newline is a "\n" in the artifact). *)
let find_escaped_string s key =
  match find_raw_field s key with
  | None -> None
  | Some start ->
      let slen = String.length s in
      if start >= slen || s.[start] <> '"' then None
      else
        let b = Buffer.create 256 in
        let rec scan i =
          if i >= slen then None
          else
            match s.[i] with
            | '"' -> Some (Buffer.contents b)
            | '\\' when i + 1 < slen -> (
                match s.[i + 1] with
                | 'n' ->
                    Buffer.add_char b '\n';
                    scan (i + 2)
                | 't' ->
                    Buffer.add_char b '\t';
                    scan (i + 2)
                | 'u' when i + 5 < slen -> (
                    match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                    | Some c when c < 0x80 ->
                        Buffer.add_char b (Char.chr c);
                        scan (i + 6)
                    | _ -> None)
                | c ->
                    Buffer.add_char b c;
                    scan (i + 2))
            | c ->
                Buffer.add_char b c;
                scan (i + 1)
        in
        scan (start + 1)

(* The '}' closing the object opened at [o].  Objects we ourselves
   write never nest, but a quoted string (a spec's text) may hold any
   brace, so strings are skipped, escapes included. *)
let object_end s o =
  let n = String.length s in
  let rec scan i quoted =
    if i >= n then None
    else
      match s.[i] with
      | '\\' when quoted -> scan (i + 2) true
      | '"' -> scan (i + 1) (not quoted)
      | '}' when not quoted -> Some i
      | _ -> scan (i + 1) quoted
  in
  scan (o + 1) false

(* Every '{...}' object after the "experiments": key, in artifact
   order. *)
let experiments_of_string data =
  match find_raw_field data "experiments" with
  | None -> []
  | Some start ->
      let slen = String.length data in
      let rec objects i acc =
        match String.index_from_opt data i '{' with
        | None -> List.rev acc
        | Some o -> (
            match object_end data o with
            | None -> List.rev acc
            | Some c ->
                let seg = String.sub data o (c - o + 1) in
                let acc =
                  match
                    ( find_string seg "name",
                      find_number seg "wall_s",
                      find_number seg "events",
                      find_number seg "events_per_sec" )
                  with
                  | Some name, Some wall_s, Some events, Some eps ->
                      {
                        name;
                        wall_s;
                        events = int_of_float events;
                        events_per_sec = eps;
                        spec = find_escaped_string seg "spec";
                      }
                      :: acc
                  | _ -> acc
                in
                if c + 1 >= slen then List.rev acc else objects (c + 1) acc)
      in
      objects start []

(* ---------------- Writing ---------------- *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rate events wall_s =
  if wall_s > 0. then float_of_int events /. wall_s else 0.

let experiment ?spec ~name ~wall_s events =
  { name; wall_s; events; events_per_sec = rate events wall_s; spec }

let experiment_to_string x =
  Printf.sprintf
    "{\"name\": \"%s\", \"wall_s\": %.6f, \"events\": %d, \"events_per_sec\": %.1f%s}"
    (escape x.name) x.wall_s x.events x.events_per_sec
    (match x.spec with
    | None -> ""
    | Some text -> Printf.sprintf ", \"spec\": \"%s\"" (escape text))

let to_string ~git ~seed ~trace ~jobs ~wall_s experiments =
  let b = Buffer.create 4096 in
  let total_events = List.fold_left (fun a x -> a + x.events) 0 experiments in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"schema\": \"xcontainers-bench/3\",\n";
  Printf.bprintf b "  \"schema_version\": 3,\n";
  Printf.bprintf b "  \"git\": \"%s\",\n" (escape git);
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"trace\": %s,\n"
    (match trace with
    | None -> "null"
    | Some path -> Printf.sprintf "\"%s\"" (escape path));
  Printf.bprintf b "  \"jobs\": %d,\n" jobs;
  Printf.bprintf b "  \"total_wall_s\": %.6f,\n" wall_s;
  Printf.bprintf b "  \"total_events\": %d,\n" total_events;
  Printf.bprintf b "  \"events_per_sec\": %.1f,\n" (rate total_events wall_s);
  Printf.bprintf b "  \"experiments\": [\n";
  List.iteri
    (fun i x ->
      Printf.bprintf b "    %s%s\n" (experiment_to_string x)
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  Printf.bprintf b "  ]\n}\n";
  Buffer.contents b
