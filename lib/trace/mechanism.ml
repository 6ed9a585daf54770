type t = Cpu | Syscall_entry | Syscall_work | Ctx_switch | Irq | Net_hop

let all = [ Cpu; Syscall_entry; Syscall_work; Ctx_switch; Irq; Net_hop ]

(* The one spelling table.  Static literals: rendering a span category
   allocates nothing. *)
let to_string = function
  | Cpu -> "cpu"
  | Syscall_entry -> "syscall-entry"
  | Syscall_work -> "syscall-work"
  | Ctx_switch -> "ctx-switch"
  | Irq -> "irq"
  | Net_hop -> "net.hop"

let of_string s =
  match List.find_opt (fun m -> to_string m = s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mechanism %S (%s)" s
           (String.concat ", " (List.map to_string all)))
