(** Mechanism pricing: what each mechanism of one request costs on one
    platform, as typed rows.

    The one home of the per-op syscall prices, the priced row, the
    row-sum fold ({!sum}) and the what-if scale ({!scale}).  Recipes
    ([Xc_apps.Recipe]) and the Fig 9 cluster stages
    ({!Cluster_sim.config_of_platform}) build their rows here;
    [Xc_obs.Whatif] re-prices rows only through {!scale} and {!sum}.

    Prices are queried when a caller prices, never frozen at
    {!Platform.create}: a switch price reads the kernel's live
    runqueue, and every query emits trace spans and metrics counters —
    price before enabling the tracer.

    {b Roundings.}  The syscall-work row is derived two ways, and
    committed references hash the last bits of both:
    {!recipe_work_ns} subtracts the entry cost once from the summed op
    prices, {!stage_work_ns} subtracts it per op.  They disagree for
    363 of 810 (platform, op mix) pairs.  [Xc_apps.Recipe.service_ns]
    adds its terms in a third order. *)

type row = { mech : Xc_trace.Mechanism.t; name : string; ns : float }

val syscalls_ns :
  coverage:float -> Platform.t -> Xc_os.Kernel.op list -> float
(** The per-op syscall prices ({!Platform.syscall_ns} at that ABOM
    coverage), summed left to right from [0.]. *)

val recipe_work_ns :
  coverage:float ->
  Platform.t ->
  entry_ns:float ->
  Xc_os.Kernel.op list ->
  float
(** Recipe rounding: [(Σ op_ns) − n·entry_ns]. *)

val stage_work_ns :
  Platform.t -> entry_ns:float -> Xc_os.Kernel.op list -> float
(** Cluster-stage rounding: [Σ (op_ns − entry_ns)], at full ABOM
    coverage. *)

val syscall_rows :
  user_ns:float -> entry_ns:float -> calls:int -> work_ns:float -> row list
(** [cpu/user], [syscall-entry/entry] ([calls] x [entry_ns]) and
    [syscall-work/kernel]. *)

val sum : row list -> float
(** [ns] summed left to right from [0.]. *)

val scale : Xc_trace.Mechanism.t -> float -> row list -> row list
(** Multiply the [ns] of every row of that mechanism. *)
