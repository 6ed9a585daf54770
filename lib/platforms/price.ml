module Mechanism = Xc_trace.Mechanism

type row = { mech : Mechanism.t; name : string; ns : float }

let syscalls_ns ~coverage platform ops =
  List.fold_left
    (fun acc op -> acc +. Platform.syscall_ns ~coverage platform op)
    0. ops

let recipe_work_ns ~coverage platform ~entry_ns ops =
  syscalls_ns ~coverage platform ops
  -. (float_of_int (List.length ops) *. entry_ns)

let stage_work_ns platform ~entry_ns ops =
  List.fold_left
    (fun acc op -> acc +. (Platform.syscall_ns platform op -. entry_ns))
    0. ops

let syscall_rows ~user_ns ~entry_ns ~calls ~work_ns =
  [
    { mech = Cpu; name = "user"; ns = user_ns };
    {
      mech = Syscall_entry;
      name = "entry";
      ns = float_of_int calls *. entry_ns;
    };
    { mech = Syscall_work; name = "kernel"; ns = work_ns };
  ]

let sum rows = List.fold_left (fun acc r -> acc +. r.ns) 0. rows

let scale mech by rows =
  List.map
    (fun r -> if r.mech = mech then { r with ns = r.ns *. by } else r)
    rows
