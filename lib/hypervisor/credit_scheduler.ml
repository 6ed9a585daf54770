type entry = { vcpu : Vcpu.t; weight : int }

type t = {
  pcpus : int;
  mutable entries : entry list;
  mutable rr_cursor : int;
}

let create ~pcpus =
  if pcpus <= 0 then invalid_arg "Credit_scheduler.create: pcpus must be positive";
  { pcpus; entries = []; rr_cursor = 0 }

let pcpus t = t.pcpus

let attach t vcpu ~weight =
  if weight <= 0 then invalid_arg "Credit_scheduler.attach: weight must be positive";
  t.entries <- t.entries @ [ { vcpu; weight } ]

let detach t vcpu =
  t.entries <- List.filter (fun e -> e.vcpu != vcpu) t.entries

let vcpu_count t = List.length t.entries

(* Xen: 30ms accounting period, credits proportional to weight. *)
let credits_per_period = 300

let accounting_tick t =
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.instant ~cat:"sched.credit" ~name:"accounting-tick" ();
  let total_weight = List.fold_left (fun acc e -> acc + e.weight) 0 t.entries in
  if total_weight > 0 then
    List.iter
      (fun e ->
        let share = credits_per_period * t.pcpus * e.weight / total_weight in
        (* Cap accumulation like Xen does, so sleepers can't hoard. *)
        let capped = Stdlib.min (Vcpu.credit e.vcpu + share) credits_per_period in
        Vcpu.set_credit e.vcpu capped)
      t.entries

let runnable t =
  List.filter (fun e -> Vcpu.state e.vcpu <> Vcpu.Blocked) t.entries

let pick_next t ~pcpu:_ =
  let candidates = runnable t in
  let n = List.length candidates in
  if n = 0 then None
  else begin
    (* UNDER (credit > 0) before OVER, round-robin within the class. *)
    let under = List.filter (fun e -> Vcpu.credit e.vcpu > 0) candidates in
    let pool = if under <> [] then under else candidates in
    let k = List.length pool in
    let idx = t.rr_cursor mod k in
    t.rr_cursor <- t.rr_cursor + 1;
    Some (List.nth pool idx).vcpu
  end

let hypervisor_credit_slices =
  Xc_sim.Metrics.counter ~cat:"hypervisor" ~name:"credit-slices"

let run_slice _t vcpu ~ns =
  Xc_sim.Metrics.counter_incr hypervisor_credit_slices;
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"sched.credit" ~name:"slice" ns;
  Vcpu.add_runtime vcpu ns;
  (* Debit one credit per 100us of execution (300 credits ~ 30ms). *)
  Vcpu.consume_credit vcpu (int_of_float (ns /. 100_000.))

let switch_cost_ns ~runnable_vcpus =
  let ns =
    Xc_cpu.Costs.context_switch_base_ns
    +. (Xc_cpu.Costs.runqueue_ns_per_task *. float_of_int runnable_vcpus)
  in
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:Xc_trace.Mechanism.(to_string Ctx_switch) ~name:"vcpu" ns;
  ns

let fairness_ratio t =
  let runtimes = List.map (fun e -> Vcpu.runtime_ns e.vcpu) t.entries in
  match runtimes with
  | [] | [ _ ] -> 1.0
  | _ ->
      let mn = List.fold_left Float.min Float.infinity runtimes in
      let mx = List.fold_left Float.max Float.neg_infinity runtimes in
      if mn <= 0. then Float.infinity else mx /. mn
