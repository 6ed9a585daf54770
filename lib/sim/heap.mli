(** Binary min-heap of [int] payloads keyed by [float] priorities.

    The event queue of the discrete-event engine is the hottest data
    structure in the simulator, so this is an array-based binary heap
    specialised to float keys and int payloads (no comparator closure
    on the hot path), stored as parallel arrays: an unboxed
    [float array] of keys, an [int array] of insertion sequence numbers
    and an [int array] of payloads — no per-entry allocation, and no
    pointer for the write barrier to track.  Ties are broken by
    insertion order so the simulation is deterministic even when many
    events share a timestamp. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val pop_into : t -> float array -> int
(** [pop_into h cell] removes the minimum-key element (FIFO among equal
    keys), writes its key into [cell.(0)] and returns its payload.  It
    allocates nothing.  Raises [Invalid_argument] when [h] is empty. *)

val min_le : t -> float array -> bool
(** [min_le h cell]: [h] is non-empty and its minimum key is
    [<= cell.(0)].  Allocation-free, like {!pop_into}. *)

val pop : t -> (float * int) option
(** Remove and return the minimum-key element (FIFO among equal keys). *)

val peek : t -> (float * int) option
val clear : t -> unit

val to_sorted_list : t -> (float * int) list
(** Non-destructive: all elements in pop order (for tests). *)
