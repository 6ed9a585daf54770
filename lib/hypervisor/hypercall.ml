type kind =
  | Mmu_update
  | Mmuext_op
  | Update_va_mapping
  | Set_trap_table
  | Sched_op
  | Event_channel_op
  | Grant_table_op
  | Iret
  | Set_segment_base
  | Console_io
  | Domctl

let all =
  [
    Mmu_update;
    Mmuext_op;
    Update_va_mapping;
    Set_trap_table;
    Sched_op;
    Event_channel_op;
    Grant_table_op;
    Iret;
    Set_segment_base;
    Console_io;
    Domctl;
  ]

let name = function
  | Mmu_update -> "mmu_update"
  | Mmuext_op -> "mmuext_op"
  | Update_va_mapping -> "update_va_mapping"
  | Set_trap_table -> "set_trap_table"
  | Sched_op -> "sched_op"
  | Event_channel_op -> "event_channel_op"
  | Grant_table_op -> "grant_table_op"
  | Iret -> "iret"
  | Set_segment_base -> "set_segment_base"
  | Console_io -> "console_io"
  | Domctl -> "domctl"

let cost_ns kind =
  let base = Xc_cpu.Costs.hypercall_ns in
  match kind with
  | Mmu_update -> base +. Xc_cpu.Costs.pv_mmu_update_ns
  | Mmuext_op -> base +. 200.
  | Update_va_mapping -> base +. 120.
  | Set_trap_table -> base +. 80.
  | Sched_op -> base
  | Event_channel_op -> base +. 60.
  | Grant_table_op -> base +. 250.
  | Iret -> Xc_cpu.Costs.iret_hypercall_ns
  | Set_segment_base -> base +. 40.
  | Console_io -> base +. 500.
  | Domctl -> base +. 2000.

type t = (kind, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let hypervisor_hypercalls = Xc_sim.Metrics.counter ~cat:"hypervisor" ~name:"hypercalls"

let invoke t kind =
  (match Hashtbl.find_opt t kind with
  | Some r -> incr r
  | None -> Hashtbl.add t kind (ref 1));
  let ns = cost_ns kind in
  Xc_sim.Metrics.counter_incr hypervisor_hypercalls;
  if Xc_trace.Trace.enabled () then begin
    Xc_trace.Trace.span ~cat:"hypercall" ~name:(name kind) ns;
    (* A hypercall is a guest-kernel <-> hypervisor round trip. *)
    Xc_cpu.Mode.record_switch ~from_:Xc_cpu.Mode.Guest_kernel
      ~to_:Xc_cpu.Mode.Hypervisor ();
    Xc_cpu.Mode.record_switch ~from_:Xc_cpu.Mode.Hypervisor
      ~to_:Xc_cpu.Mode.Guest_kernel ()
  end;
  ns

let invocations t kind =
  match Hashtbl.find_opt t kind with Some r -> !r | None -> 0

let total_invocations t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0
let surface_size () = List.length all
