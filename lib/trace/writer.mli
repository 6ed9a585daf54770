(** Exact-size text output for the trace writers, with no [Printf] and
    no [Buffer] on the per-record path.

    {!render} runs an emitter twice: a sizing pass that only adds up
    lengths, then a writing pass into one [Bytes] of exactly that size,
    returned without a copy.  The emitter must therefore write the same
    thing both times (it is a pure function of its input). *)

type t

val render : (t -> unit) -> string

val string : t -> string -> unit
val char : t -> char -> unit

val mapped : t -> (char -> char) -> string -> unit
(** Copy a string through a per-character rewrite (sanitising, frame
    escaping); the length does not change. *)

val int : t -> int -> unit
(** Decimal, as [%d]. *)

val fixed : t -> int -> float -> unit
(** [fixed w d x] writes [x] with [d] decimals, [d] one of 0, 3 or 6,
    byte-identical to [Printf.sprintf "%.<d>f" x].  Finite [x >= 0.]
    with [x * 10^d < 2^52] is rounded half-to-even on its exact value
    (an FMA recovers the product's rounding error) and written with
    integer arithmetic; anything else (negatives, [-0.], NaN, the
    infinities, large magnitudes) goes through [caml_format_float],
    the primitive [Printf] itself uses.
    @raise Invalid_argument for another [d]. *)
