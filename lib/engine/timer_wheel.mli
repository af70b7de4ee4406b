(** Hashed timer wheel for mass expirations.

    The session table ages out millions of entries; a binary-heap timer per
    entry would dominate the event queue.  A timer wheel gives O(1)
    insert/cancel and amortised O(1) expiry at a fixed tick granularity,
    which matches how flow-aging hardware works (coarse timestamps, lazy
    sweeps).

    Timers live in a pool of nodes held in flat arrays: links, states
    and payloads are [int]s and deadlines a [float array], so arming,
    sweeping and re-arming store only unboxed words and run no write
    barrier.  A payload is an [int]; a caller keeps whatever it stands
    for in its own table.  A timer is named by an [int] handle that
    carries its node and the generation the node was issued under: once
    the node is released (its timer fired without being re-armed, or was
    cancelled and swept) the handle is stale, and every operation on it
    is a no-op. *)

type t

type timer = int
(** A handle on one scheduled expiration. *)

val create : tick:float -> slots:int -> t
(** [create ~tick ~slots] covers a horizon of [tick *. slots] seconds per
    revolution; longer deadlines simply survive extra revolutions.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)

val add : t -> now:float -> deadline:float -> int -> timer
(** Schedule [payload] to expire at the first slot boundary at or after
    [deadline] — within one tick of it.  Deadlines in the past (below
    [now], or in an already-swept slot) fire on the next sweep.  Takes a
    released node when there is one, so a warm wheel allocates nothing. *)

val none : timer
(** A placeholder that was never armed: every operation on it is a
    no-op. *)

val cancel : t -> timer -> unit
(** O(1).  Cancelling a timer inside its own [advance] callback stops a
    later {!rearm} from that callback; cancelling a cancelled or stale
    timer is a no-op. *)

val rearm : t -> timer -> now:float -> deadline:float -> timer
(** Arm [timer] again, for [deadline] as in {!add}, and return the armed
    timer.  A timer inside its own [advance] callback is re-linked in
    place: the same node and handle, no allocation.  A pending one is
    cancelled and replaced by a fresh node with the same payload.  A
    cancelled or stale one is returned as is: a cancel wins over a
    re-arm. *)

val armed : t -> timer -> bool
(** Whether [timer] is pending: armed, and neither fired nor cancelled
    since. *)

val next_sweep_at : t -> float
(** Earliest time at which [advance] would sweep another slot, i.e. the
    end of the cursor's current window.  A conservative lower bound on
    the next expiry: no pending timer can fire strictly before it.
    Slot boundaries are exact multiples of [tick] (derived from an
    integer slot counter), so the value is identical however the wheel
    was advanced to its current position. *)

val beyond_sweep : t -> float -> bool
(** Whether a timer added now at this deadline would land in a slot past
    the cursor's.  Inside an [advance] callback that is a slot the
    current sweep has not reached: such a timer fires later in the same
    [advance] only if that call's [now] passes the slot's end. *)

val advance : t -> now:float -> (int -> unit) -> int
(** [advance t ~now f] fires [f] on the payload of every timer whose
    deadline is [<= now], in deadline-slot order; returns the count
    fired.  Must be called with monotonically non-decreasing [now].
    Within a slot, timers fire newest first; the ones not yet due keep
    their order.  A timer is marked fired before [f] runs on its
    payload, and its node is released when [f] returns unless [f]
    re-armed it.  A timer that [f] adds or re-arms into the slot being
    swept is not fired by that sweep: it waits in the slot, in front of
    the survivors, for the cursor's next visit. *)

val pending : t -> int
(** Live (non-cancelled, non-fired) timers. *)
