module Price = Xc_platforms.Price
module Platform = Xc_platforms.Platform

type t = {
  name : string;
  user_ns : float;
  ops : Xc_os.Kernel.op list;
  request_bytes : int;
  response_bytes : int;
  process_hops : int;
  irqs : int;
  abom_coverage : float;
}

let make ~name ~user_ns ~ops ?(request_bytes = 256) ?(response_bytes = 1024)
    ?(process_hops = 0) ?(irqs = 2) ?(abom_coverage = 1.0) () =
  {
    name;
    user_ns;
    ops;
    request_bytes;
    response_bytes;
    process_hops;
    irqs;
    abom_coverage;
  }

let syscall_count t = List.length t.ops

(* Service time sums its terms in its own order — user, summed op
   prices, switches, interrupts, network — which is not the row sum
   of [mechanisms]; see {!Price} on why both roundings stay. *)
let cpu_only_ns platform t =
  t.user_ns
  +. Price.syscalls_ns ~coverage:t.abom_coverage platform t.ops
  +. (float_of_int t.process_hops *. Platform.process_switch_ns platform)
  +. (float_of_int t.irqs *. Platform.irq_ns platform)

let service_ns platform t =
  cpu_only_ns platform t
  +. Platform.request_net_ns platform ~request_bytes:t.request_bytes
       ~response_bytes:t.response_bytes

(* The same total as [service_ns], split into priced rows.  Call with
   tracing disabled (or before enabling): the platform cost queries
   themselves emit trace spans. *)
let mechanisms platform t =
  let coverage = t.abom_coverage in
  let entry_ns = Platform.syscall_entry_ns ~coverage platform in
  let work_ns = Price.recipe_work_ns ~coverage platform ~entry_ns t.ops in
  let base =
    Price.syscall_rows ~user_ns:t.user_ns ~entry_ns ~calls:(syscall_count t)
      ~work_ns
  in
  let priced n mech name price =
    if n = 0 then []
    else [ { Price.mech; name; ns = float_of_int n *. price platform } ]
  in
  let hops =
    priced t.process_hops Ctx_switch "process" Platform.process_switch_ns
  in
  let irqs = priced t.irqs Irq "delivery" Platform.irq_ns in
  let net =
    {
      Price.mech = Net_hop;
      name = "server-stack";
      ns =
        Platform.request_net_ns platform ~request_bytes:t.request_bytes
          ~response_bytes:t.response_bytes;
    }
  in
  List.filter (fun r -> r.Price.ns > 0.) (base @ hops @ irqs @ [ net ])

let with_jitter t platform ~cv rng =
  let base = service_ns platform t in
  if cv <= 0. then base
  else begin
    let sample = Xc_sim.Prng.normal rng ~mean:1.0 ~stddev:cv in
    base *. Float.max 0.2 sample
  end
