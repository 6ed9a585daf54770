(** The closed mechanism vocabulary: the per-request costs a platform
    prices, spelled as the tracer's span categories, so a priced row,
    a what-if axis and a blamed critical-path segment name the same
    thing. *)

type t = Cpu | Syscall_entry | Syscall_work | Ctx_switch | Irq | Net_hop

val all : t list

val to_string : t -> string
(** The span category, e.g. ["net.hop"]: a static string, so trace
    emission can render one per span without allocating. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; the error lists the vocabulary. *)
