module Image = Xc_isa.Image
module Insn = Xc_isa.Insn
module Codec = Xc_isa.Codec
module Machine = Xc_isa.Machine

type outcome =
  | Patched_case1
  | Patched_case2
  | Patched_9byte
  | Already_patched
  | Unrecognized

let outcome_to_string = function
  | Patched_case1 -> "patched-7B-case1"
  | Patched_case2 -> "patched-7B-case2"
  | Patched_9byte -> "patched-9B"
  | Already_patched -> "already-patched"
  | Unrecognized -> "unrecognized"

type t = {
  table : Entry_table.t;
  mutable cmpxchg_ops : int;
  counts : (outcome, int ref) Hashtbl.t;
}

let create table = { table; cmpxchg_ops = 0; counts = Hashtbl.create 8 }
let table t = t.table

let abom_patch_attempts = Xc_sim.Metrics.counter ~cat:"abom" ~name:"patch-attempts"

let count t outcome =
  let cell =
    match Hashtbl.find_opt t.counts outcome with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.counts outcome r;
        r
  in
  incr cell;
  Xc_sim.Metrics.counter_incr abom_patch_attempts;
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.instant ~cat:"abom" ~name:(outcome_to_string outcome) ()

(* One atomic compare-and-swap store: at most eight bytes. *)
let cmpxchg t image ~off insn =
  assert (Insn.length insn <= 8);
  t.cmpxchg_ops <- t.cmpxchg_ops + 1;
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.counter ~cat:"abom" ~name:"cmpxchg"
      (float_of_int t.cmpxchg_ops);
  let buf = Codec.encode insn in
  match Image.write image ~off buf ~wp_override:true with
  | Ok () -> ()
  | Error msg -> failwith ("ABOM cmpxchg failed: " ^ msg)

let decode_back image ~syscall_off ~distance =
  let off = syscall_off - distance in
  if off < 0 then None
  else begin
    let insn, len = Image.insn_at image off in
    if len = distance then Some insn else None
  end

let patch_site ?(stop_after_phase1 = false) t image ~syscall_off =
  let syscall_present =
    match Image.insn_at image syscall_off with Insn.Syscall, _ -> true | _ -> false
  in
  let already =
    (* A concurrent vCPU may have replaced the pair before this trap was
       serviced; detect the call instruction where the mov used to be. *)
    (match decode_back image ~syscall_off ~distance:5 with
    | Some (Insn.Call_abs _) -> true
    | _ -> false)
    || match decode_back image ~syscall_off ~distance:7 with
       | Some (Insn.Call_abs _) -> true
       | _ -> false
  in
  if already || not syscall_present then begin
    count t Already_patched;
    Already_patched
  end
  else begin
    match decode_back image ~syscall_off ~distance:5 with
    | Some (Insn.Mov_eax_imm32 sysno) when sysno < Entry_table.max_syscalls ->
        (* Case 1: 5-byte mov + 2-byte syscall -> one 7-byte call. *)
        let addr = Entry_table.address_of t.table sysno in
        cmpxchg t image ~off:(syscall_off - 5) (Insn.Call_abs addr);
        count t Patched_case1;
        Patched_case1
    | Some (Insn.Mov_rax_rsp8 0x8) ->
        (* Case 2: Go-style stack-loaded syscall number -> dynamic entry. *)
        cmpxchg t image ~off:(syscall_off - 5)
          (Insn.Call_abs Entry_table.dynamic_address);
        count t Patched_case2;
        Patched_case2
    | _ -> begin
        match decode_back image ~syscall_off ~distance:7 with
        | Some (Insn.Mov_rax_imm32 sysno) when sysno >= 0 && sysno < Entry_table.max_syscalls
          ->
            (* 9-byte replacement.  Phase 1: overwrite the 7-byte mov with
               the call; the trailing syscall stays valid (the LibOS
               handler skips it on return).  Phase 2: turn the trailing
               syscall into a jmp back onto the call. *)
            let addr = Entry_table.address_of t.table sysno in
            cmpxchg t image ~off:(syscall_off - 7) (Insn.Call_abs addr);
            if not stop_after_phase1 then
              cmpxchg t image ~off:syscall_off (Insn.Jmp_rel8 (-9));
            count t Patched_9byte;
            Patched_9byte
        | _ ->
            count t Unrecognized;
            Unrecognized
      end
  end

let patched_sites t =
  Hashtbl.fold
    (fun outcome r acc ->
      match outcome with
      | Patched_case1 | Patched_case2 | Patched_9byte -> acc + !r
      | Already_patched | Unrecognized -> acc)
    t.counts 0

let unrecognized_sites t =
  match Hashtbl.find_opt t.counts Unrecognized with Some r -> !r | None -> 0

let cmpxchg_ops t = t.cmpxchg_ops

let outcomes t =
  Hashtbl.fold (fun outcome r acc -> (outcome, !r) :: acc) t.counts []
  |> List.sort compare

let machine_config ?(enabled = true) t () =
  let on_syscall_trap =
    if enabled then
      Some
        (fun machine ~sysno:_ ~syscall_off ->
          ignore (patch_site t (Machine.image machine) ~syscall_off))
    else None
  in
  Machine.xcontainer_config ?on_syscall_trap ~lookup:(Entry_table.lookup t.table)
    ()
