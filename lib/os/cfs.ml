type t = { mutable procs : Process.t list }

let create () = { procs = [] }

let add t p = if not (List.memq p t.procs) then t.procs <- t.procs @ [ p ]
let remove t p = t.procs <- List.filter (fun q -> q != p) t.procs

let runnable t =
  List.filter (fun p -> Process.state p = Process.Runnable) t.procs

let runnable_count t = List.length (runnable t)

let pick_next t =
  match runnable t with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best p ->
             if Process.vruntime p < Process.vruntime best then p else best)
           first rest)

let os_cfs_slices = Xc_sim.Metrics.counter ~cat:"os" ~name:"cfs-slices"

let run_slice _t p ~ns =
  Xc_sim.Metrics.counter_incr os_cfs_slices;
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"sched.cfs" ~name:"slice" ns;
  Process.add_cpu_time p ns;
  Process.add_vruntime p ns

let min_vruntime t =
  match runnable t with
  | [] -> 0.
  | first :: rest ->
      List.fold_left (fun m p -> Float.min m (Process.vruntime p))
        (Process.vruntime first) rest

let wake t p =
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.instant ~cat:"sched.cfs" ~name:"wake" ();
  Process.set_state p Process.Runnable;
  Process.set_vruntime p (min_vruntime t);
  add t p
