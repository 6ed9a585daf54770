(* Process CPU seconds when module initialisation reached this
   library, which is linked ahead of the simulator's libraries. *)
let cpu_s = Sys.time ()
