module Costs = Xc_cpu.Costs

type hop =
  | Native_stack
  | Iptables_forward
  | Split_driver
  | Gvisor_netstack
  | Nested_exit
  | Wire of Link.t

let hop_cost_ns hop ~bytes_len =
  match hop with
  | Native_stack -> Costs.netdev_xmit_ns +. (0.03 *. float_of_int bytes_len)
  | Iptables_forward -> Costs.bridge_hop_ns
  | Split_driver -> Costs.split_driver_hop_ns +. (0.02 *. float_of_int bytes_len)
  | Gvisor_netstack -> Costs.gvisor_net_ns +. (0.10 *. float_of_int bytes_len)
  | Nested_exit -> Costs.nested_io_ns
  | Wire link -> Link.transfer_ns link ~bytes_len

let hop_name = function
  | Native_stack -> "native-stack"
  | Iptables_forward -> "iptables"
  | Split_driver -> "split-driver"
  | Gvisor_netstack -> "gvisor-netstack"
  | Nested_exit -> "nested-exit"
  | Wire _ -> "wire"

let path_cost_ns hops ~bytes_len =
  List.fold_left (fun acc hop -> acc +. hop_cost_ns hop ~bytes_len) 0. hops

let packets_for ~bytes_len ~mss =
  if bytes_len <= 0 then 1 else (bytes_len + mss - 1) / mss

let net_hops = Xc_sim.Metrics.counter ~cat:"net" ~name:"hops"

let message_cost_ns hops ~bytes_len ~mss =
  let n = packets_for ~bytes_len ~mss in
  let per_packet_len = Stdlib.min bytes_len mss in
  if Xc_sim.Metrics.on () then
    Xc_sim.Metrics.counter_add net_hops (float_of_int (n * List.length hops));
  (* One span per hop covering all [n] packets, so the traced total
     equals the charged total without one event per packet. *)
  if Xc_trace.Trace.enabled () then
    List.iter
      (fun hop ->
        Xc_trace.Trace.span ~cat:Xc_trace.Mechanism.(to_string Net_hop) ~name:(hop_name hop)
          (float_of_int n *. hop_cost_ns hop ~bytes_len:per_packet_len))
      hops;
  float_of_int n *. path_cost_ns hops ~bytes_len:per_packet_len
