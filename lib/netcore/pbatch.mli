(** A flat, reusable vector of packets — the unit of work on the batched
    dataplane (OVS-DPDK/VPP style).

    The buffer is a plain growable array: no per-slot boxing, no
    per-packet allocation on push beyond occasional doubling.  Batches
    follow an ownership discipline — handing one to an API transfers
    ownership, and the final consumer returns it to the arena with
    {!recycle}.  Recycling is optional: a dropped batch is ordinary GC
    garbage, and the [pooled] guard makes a double-recycle a no-op. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh, empty batch (default capacity 32). *)

val length : t -> int
val is_empty : t -> bool
val capacity : t -> int

val get : t -> int -> Packet.t
(** @raise Invalid_argument outside [0, length). *)

val push : t -> Packet.t -> unit
(** Append, doubling the backing array when full. *)

val clear : t -> unit
(** Empty the batch and drop every packet reference (slots are
    overwritten so cleared batches keep nothing alive). *)

val iter : t -> (Packet.t -> unit) -> unit
val iteri : t -> (int -> Packet.t -> unit) -> unit

val filter_in_place : t -> (Packet.t -> bool) -> unit
(** Keep only packets satisfying the predicate, preserving order. *)

val of_list : Packet.t list -> t
val to_list : t -> Packet.t list

(** {1 Arena}

    A global freelist of cleared batches.  Steady-state batch traffic
    through {!alloc}/{!recycle} allocates nothing (beyond array
    growth). *)

val alloc : unit -> t
(** A cleared batch from the freelist, or a fresh one when empty. *)

val recycle : t -> unit
(** Clear and return the batch to the freelist.  Idempotent. *)

val sub : t -> int -> int -> t
(** [sub b pos len]: a batch from the arena holding [b]'s packets
    [pos .. pos+len-1], in order.  [b] is left as it was.
    @raise Invalid_argument when the range is not within [b]. *)

val singleton : Packet.t -> t
(** A batch from the arena holding only the given packet: how a
    single-packet entry point enters the batched dataplane. *)

val pool_stats : unit -> int * int * int
(** [(fresh_allocs, reuses, recycles)] since the last {!reset_pool}. *)

val reset_pool : unit -> unit
