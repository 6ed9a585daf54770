(** Request recipes.

    An application is modelled by what one request makes the kernel do: a
    fixed amount of user-space work, a list of system calls, the bytes
    exchanged on the network, and how many times the request hops between
    processes of the same container (e.g. NGINX -> PHP-FPM -> NGINX).
    Given a platform, the recipe prices out to a service time. *)

type t = {
  name : string;
  user_ns : float;  (** pure user-space CPU per request *)
  ops : Xc_os.Kernel.op list;  (** system calls issued per request *)
  request_bytes : int;
  response_bytes : int;
  process_hops : int;  (** intra-container process switches per request *)
  irqs : int;  (** network interrupts triggered per request *)
  abom_coverage : float;  (** Table 1 dynamic coverage for this app *)
}

val make :
  name:string ->
  user_ns:float ->
  ops:Xc_os.Kernel.op list ->
  ?request_bytes:int ->
  ?response_bytes:int ->
  ?process_hops:int ->
  ?irqs:int ->
  ?abom_coverage:float ->
  unit ->
  t

val syscall_count : t -> int

val service_ns : Xc_platforms.Platform.t -> t -> float
(** Full per-request server-side service time on a platform. *)

val cpu_only_ns : Xc_platforms.Platform.t -> t -> float
(** Service time without the network component (for pipelined stages). *)

val with_jitter :
  t -> Xc_platforms.Platform.t -> cv:float -> Xc_sim.Prng.t -> float
(** Sample a service time with lognormal-ish jitter of coefficient of
    variation [cv] around the deterministic value. *)

val mechanisms : Xc_platforms.Platform.t -> t -> Xc_platforms.Price.row list
(** The {!service_ns} total split into priced rows ([cpu/user],
    [syscall-entry/entry], [syscall-work/kernel], [ctx-switch/process],
    [irq/delivery], [net.hop/server-stack]), zero rows omitted; rows
    sum to {!service_ns} up to rounding (see {!Xc_platforms.Price}).
    Feed to [Closed_loop.config.trace_mechanisms] so per-request tail
    attribution recovers the recipe's decomposition.  Call while
    tracing is disabled — the platform cost queries themselves emit
    spans. *)
