(* bench/HISTORY.jsonl: one line per bench run, appended by
   [xc bench history append] from the BENCH_sim.json artifact of that
   run.  Each line carries the artifact's top-level summary plus the
   per-experiment records, so the trajectory of both the totals and any
   single experiment can be charted across commits (the artifact is
   stamped with [git describe]).  Same parsing policy as Bench_json:
   naive field extraction over the exact format we ourselves write. *)

type entry = {
  summary : Bench_json.summary;
  experiments : Bench_json.experiment list;
}

let to_line e =
  let s = e.summary in
  Printf.sprintf
    "{\"schema_version\": %d, \"git\": \"%s\", \"jobs\": %d, \
     \"total_wall_s\": %f, \"total_events\": %d, \"events_per_sec\": %.1f, \
     \"experiments\": [%s]}"
    s.schema_version (Bench_json.escape s.git) s.jobs s.total_wall_s
    s.total_events s.events_per_sec
    (String.concat ", "
       (List.map
          (fun (x : Bench_json.experiment) ->
            Bench_json.experiment_to_string { x with spec = None })
          e.experiments))

let entry_of_string line =
  match Bench_json.of_string line with
  | Error m -> Error m
  | Ok summary ->
      Ok { summary; experiments = Bench_json.experiments_of_string line }

let entry_of_bench_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> (
      match Bench_json.of_string data with
      | Error m -> Error (path ^ ": " ^ m)
      | Ok summary ->
          Ok { summary; experiments = Bench_json.experiments_of_string data })
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated file")

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec lines acc =
          match input_line ic with
          | line -> lines (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        lines [])
  with
  | exception Sys_error msg -> Error msg
  | lines ->
      let rec parse i acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then parse (i + 1) acc rest
            else begin
              match entry_of_string line with
              | Ok e -> parse (i + 1) (e :: acc) rest
              | Error m -> Error (Printf.sprintf "%s:%d: %s" path i m)
            end
      in
      parse 1 [] lines

let append ~history ~bench =
  match entry_of_bench_file bench with
  | Error _ as e -> e
  | Ok entry -> (
      match
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 history
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (to_line entry);
            output_char oc '\n')
      with
      | () -> Ok entry
      | exception Sys_error msg -> Error msg)

(* ---------------- Drift check against a trailing window ---------------- *)

let default_window = 5

let check ?(threshold_pct = Bench_json.default_threshold_pct)
    ?(window = default_window) entries (current : Bench_json.summary) =
  if window < 1 then Error "window must be >= 1"
  else if entries = [] then Error "history is empty — nothing to check against"
  else begin
    (* Only entries recorded at the same job count form the baseline:
       a parallel run's wall-clock must never pollute the jobs-1 drift
       gate (and vice versa). *)
    let entries =
      List.filter
        (fun e -> e.summary.Bench_json.jobs = current.Bench_json.jobs)
        entries
    in
    if entries = [] then
      Error
        (Printf.sprintf
           "history has no entries at jobs %d — append one before checking \
            drift at that job count"
           current.Bench_json.jobs)
    else begin
    let n = List.length entries in
    let tail =
      if n <= window then entries
      else List.filteri (fun i _ -> i >= n - window) entries
    in
    let k = List.length tail in
    let mean f = List.fold_left (fun a e -> a +. f e) 0. tail /. float_of_int k in
    let baseline =
      {
        Bench_json.git = Printf.sprintf "history-mean-of-%d" k;
        schema_version = current.Bench_json.schema_version;
        jobs = (List.nth tail (k - 1)).summary.Bench_json.jobs;
        total_wall_s = mean (fun e -> e.summary.Bench_json.total_wall_s);
        total_events =
          int_of_float
            (mean (fun e -> float_of_int e.summary.Bench_json.total_events));
        events_per_sec = mean (fun e -> e.summary.Bench_json.events_per_sec);
      }
    in
    let verdicts = Bench_json.check ~threshold_pct ~baseline ~current () in
    Ok
      ( Bench_json.render ~threshold_pct ~baseline ~current verdicts,
        Bench_json.regressed verdicts )
    end
  end

(* ---------------- Trajectory rendering ---------------- *)

let total_name = "total"

(* ((experiment, jobs), (git, wall_s, events, events_per_sec) per entry);
   "total" first, then every experiment name in first-seen order —
   each name split into one series per job count (first-seen order),
   so a parallel run charts next to, never into, the jobs-1 series. *)
let series entries =
  let names = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun (x : Bench_json.experiment) ->
          if not (List.mem x.name !names) then names := x.name :: !names)
        e.experiments)
    entries;
  let jobs_of e = e.summary.Bench_json.jobs in
  let job_counts =
    List.fold_left
      (fun acc e -> if List.mem (jobs_of e) acc then acc else jobs_of e :: acc)
      [] entries
    |> List.rev
  in
  let row_of_total e =
    let s = e.summary in
    ( s.Bench_json.git,
      s.Bench_json.total_wall_s,
      s.Bench_json.total_events,
      s.Bench_json.events_per_sec )
  in
  let row_of_exp name e =
    match
      List.find_opt (fun (x : Bench_json.experiment) -> x.name = name) e.experiments
    with
    | Some x ->
        Some (e.summary.Bench_json.git, x.wall_s, x.events, x.events_per_sec)
    | None -> None
  in
  List.concat_map
    (fun name ->
      List.filter_map
        (fun jobs ->
          let at_jobs = List.filter (fun e -> jobs_of e = jobs) entries in
          let rows =
            if name = total_name then List.map row_of_total at_jobs
            else List.filter_map (row_of_exp name) at_jobs
          in
          if rows = [] then None else Some ((name, jobs), rows))
        job_counts)
    (total_name :: List.rev !names)

let to_csv entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "experiment,run,git,jobs,wall_s,events,events_per_sec\n";
  List.iter
    (fun ((name, jobs), rows) ->
      List.iteri
        (fun i (git, wall, events, eps) ->
          Printf.bprintf buf "%s,%d,%s,%d,%f,%d,%.1f\n" name (i + 1) git jobs
            wall events eps)
        rows)
    (series entries);
  Buffer.contents buf

let bar_width = 40

let plot ?experiment entries =
  let buf = Buffer.create 1024 in
  let wanted =
    match experiment with
    | None -> series entries
    | Some name ->
        List.filter (fun ((n, _), _) -> n = name) (series entries)
  in
  if wanted = [] then
    Printf.bprintf buf "no such experiment in history: %s\n"
      (Option.value ~default:"?" experiment);
  List.iter
    (fun ((name, jobs), rows) ->
      if rows <> [] then begin
        Printf.bprintf buf "== %s (jobs %d, %d run%s) ==\n" name jobs
          (List.length rows)
          (if List.length rows = 1 then "" else "s");
        let max_eps =
          List.fold_left (fun m (_, _, _, eps) -> Float.max m eps) 0. rows
        in
        List.iteri
          (fun i (git, wall, _events, eps) ->
            let w =
              if max_eps <= 0. then 0
              else int_of_float (Float.round (eps /. max_eps *. float_of_int bar_width))
            in
            Printf.bprintf buf "%3d  %-24s %12.1f ev/s |%-*s| %10.3fs\n"
              (i + 1) git eps bar_width (String.make w '#') wall)
          rows;
        Buffer.add_char buf '\n'
      end)
    wanted;
  Buffer.contents buf
