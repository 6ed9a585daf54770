(* The histogram lives in Xc_trace, next to the tail cut that reads it
   ({!Xc_trace.Profile.tail_at}); this keeps the Xc_sim.Histogram path. *)
include Xc_trace.Histogram
