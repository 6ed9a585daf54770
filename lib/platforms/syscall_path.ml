module Costs = Xc_cpu.Costs
module Trace = Xc_trace.Trace
module Mechanism = Xc_trace.Mechanism
module Mode = Xc_cpu.Mode

let kpti_ns = (2. *. Costs.kpti_transition_ns) +. Costs.kpti_tlb_side_ns

let entry_ns (c : Config.t) =
  match c.runtime with
  | Docker | Xen_hvm | Xen_pv ->
      (* Native syscall into the host (or VM guest) kernel, plus Docker's
         seccomp/audit filters; KPTI when patched. *)
      Costs.syscall_trap_ns +. Costs.seccomp_audit_ns
      +. (if c.meltdown_patched then kpti_ns else 0.)
  | Gvisor ->
      (* ptrace interception: several host context switches per syscall;
         the host's KPTI applies to each interception when patched. *)
      Costs.gvisor_syscall_ns +. (if c.meltdown_patched then kpti_ns else 0.)
  | Clear_container ->
      (* Syscalls stay inside the nested VM; the minimal guest kernel is
         never patched (Section 5.1). *)
      Costs.clear_guest_syscall_ns
  | Xen_container ->
      (* x86-64 PV: forwarded through Xen with an address-space switch
         and TLB flush each way; XPTI when patched. *)
      Costs.xen_pv_syscall_ns
      +. (if c.meltdown_patched then Costs.xen_xpti_extra_ns else 0.)
  | X_container ->
      (* ABOM-patched site: a function call through the vsyscall entry
         table.  The Meltdown patch lives in the X-Kernel and is never on
         this path (Section 5.4). *)
      Costs.xc_fast_syscall_ns
  | Unikernel -> Costs.function_call_ns +. 10.
  | Graphene ->
      (* A Graphene "syscall" crosses the libOS, the PAL and usually a
         real host syscall with its seccomp filter — measured in the
         microseconds for I/O paths. *)
      3_400.

let unpatched_site_ns (c : Config.t) =
  match c.runtime with
  | Config.X_container -> Costs.xc_forwarded_syscall_ns
  | _ -> entry_ns c

(* ---- tracing of the entry path ----

   The entry span carries the mechanism as its name, and the implied
   ring crossings are emitted as "mode-switch" instants, so a trace
   diff of two platforms counts both the nanoseconds and the number of
   privilege transitions each syscall costs. *)

let entry_mechanism (c : Config.t) =
  match c.runtime with
  | Docker | Xen_hvm | Xen_pv ->
      if c.meltdown_patched then "syscall-trap+kpti" else "syscall-trap"
  | Gvisor -> "gvisor-ptrace"
  | Clear_container -> "clear-guest-trap"
  | Xen_container ->
      if c.meltdown_patched then "xen-pv-forward+xpti" else "xen-pv-forward"
  | X_container -> "xc-forwarded"
  | Unikernel -> "function-call"
  | Graphene -> "graphene-libos"

(* Trap entries cross user->kernel and back once. *)
let trace_trap_modes () =
  Mode.record_switch ~from_:Mode.Guest_user ~to_:Mode.Guest_kernel ();
  Mode.record_switch ~from_:Mode.Guest_kernel ~to_:Mode.Guest_user ()

(* x86-64 PV forwarding bounces through the hypervisor on entry and on
   the iret: four transitions per syscall (Section 4.1). *)
let trace_pv_forward_modes () =
  Mode.record_switch ~from_:Mode.Guest_user ~to_:Mode.Hypervisor ();
  Mode.record_switch ~from_:Mode.Hypervisor ~to_:Mode.Guest_kernel ();
  Mode.record_switch ~from_:Mode.Guest_kernel ~to_:Mode.Hypervisor ();
  Mode.record_switch ~from_:Mode.Hypervisor ~to_:Mode.Guest_user ()

let trace_entry (c : Config.t) ns =
  Trace.span ~cat:Mechanism.(to_string Syscall_entry) ~name:(entry_mechanism c) ns;
  match c.runtime with
  | Docker | Xen_hvm | Xen_pv | Gvisor | Clear_container | Graphene ->
      trace_trap_modes ()
  | Xen_container -> trace_pv_forward_modes ()
  | X_container -> trace_pv_forward_modes ()
  | Unikernel -> ()

let effective_entry_ns (c : Config.t) ~abom_coverage =
  match c.runtime with
  | Config.X_container ->
      let f = Float.max 0. (Float.min 1. abom_coverage) in
      let fast = f *. Costs.xc_fast_syscall_ns in
      let forwarded = (1. -. f) *. Costs.xc_forwarded_syscall_ns in
      if Trace.enabled () then begin
        (* The blend becomes two spans: the patched-site function call
           and the residual forwarded share (with its ring crossings),
           so coverage is visible in the artifact. *)
        if f > 0. then Trace.span ~cat:Mechanism.(to_string Syscall_entry) ~name:"abom-call" fast;
        if f < 1. then begin
          Trace.span ~cat:Mechanism.(to_string Syscall_entry) ~name:"xc-forwarded" forwarded;
          trace_pv_forward_modes ()
        end
      end;
      fast +. forwarded
  | _ ->
      let ns = entry_ns c in
      if Trace.enabled () then trace_entry c ns;
      ns

let interrupt_mechanism (c : Config.t) =
  match c.runtime with
  | Docker | Gvisor | Xen_hvm | Graphene -> "native-irq"
  | Clear_container -> "nested-irq"
  | Xen_container | Xen_pv | Unikernel -> "xen-event"
  | X_container -> "xc-direct"

let interrupt_ns (c : Config.t) =
  let ns =
    match c.runtime with
    | Docker | Gvisor | Xen_hvm ->
        Costs.interrupt_delivery_ns
        +. if c.meltdown_patched then 2. *. Costs.kpti_transition_ns else 0.
    | Clear_container -> Costs.interrupt_delivery_ns +. Costs.nested_vmexit_ns
    | Xen_container | Xen_pv | Unikernel ->
        Costs.xen_event_channel_ns +. Costs.iret_hypercall_ns
    | X_container -> Costs.xc_event_direct_ns +. Costs.xc_iret_ns
    | Graphene ->
        Costs.interrupt_delivery_ns
        +. if c.meltdown_patched then 2. *. Costs.kpti_transition_ns else 0.
  in
  if Trace.enabled () then
    Trace.span ~cat:Mechanism.(to_string Irq) ~name:(interrupt_mechanism c) ns;
  ns

let graphene_ipc_fraction_multiproc = 0.12

let graphene_ipc_cost_ns = 3_000.

let graphene_entry_ns ~multiprocess =
  let base = 3_400. in
  if multiprocess then
    base +. (graphene_ipc_fraction_multiproc *. graphene_ipc_cost_ns)
  else base
