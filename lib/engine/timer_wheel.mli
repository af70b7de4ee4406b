(** Hashed timer wheel for mass expirations.

    The session table ages out millions of entries; a binary-heap timer per
    entry would dominate the event queue.  A timer wheel gives O(1)
    insert/cancel and amortised O(1) expiry at a fixed tick granularity,
    which matches how flow-aging hardware works (coarse timestamps, lazy
    sweeps). *)

type 'a t

type 'a timer
(** A scheduled expiration carrying a payload of type ['a]. *)

val create : tick:float -> slots:int -> 'a t
(** [create ~tick ~slots] covers a horizon of [tick *. slots] seconds per
    revolution; longer deadlines simply survive extra revolutions.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)

val add : 'a t -> now:float -> deadline:float -> 'a -> 'a timer
(** Schedule [payload] to expire at the first slot boundary at or after
    [deadline] — within one tick of it.  Deadlines in the past (below
    [now], or in an already-swept slot) fire on the next sweep. *)

val none : 'a timer
(** A placeholder that was never armed: cancelling it is a no-op. *)

val cancel : 'a timer -> unit
(** O(1).  Cancelling a fired timer marks it cancelled, so a later
    {!rearm} leaves it alone; cancelling a cancelled one is a no-op. *)

val rearm : 'a timer -> now:float -> deadline:float -> 'a timer
(** Arm [timer] again in its own wheel, for [deadline] as in {!add}, and
    return the armed timer.  A fired timer — say, inside its own
    [advance] callback — is re-linked in place: the same node, no
    allocation.  A pending one is cancelled and replaced by a fresh
    node with the same payload.  A cancelled one stays cancelled and is
    returned as is: a cancel wins over a re-arm.
    @raise Invalid_argument on {!none}. *)

val cancelled : 'a timer -> bool

val payload : 'a timer -> 'a

val next_sweep_at : 'a t -> float
(** Earliest time at which [advance] would sweep another slot, i.e. the
    end of the cursor's current window.  A conservative lower bound on
    the next expiry: no pending timer can fire strictly before it.
    Slot boundaries are exact multiples of [tick] (derived from an
    integer slot counter), so the value is identical however the wheel
    was advanced to its current position. *)

val beyond_sweep : 'a t -> float -> bool
(** Whether a timer added now at this deadline would land in a slot past
    the cursor's.  Inside an [advance] callback that is a slot the
    current sweep has not reached: such a timer fires later in the same
    [advance] only if that call's [now] passes the slot's end. *)

val advance : 'a t -> now:float -> ('a -> unit) -> int
(** [advance t ~now f] fires [f] on every timer whose deadline is
    [<= now], in deadline-slot order; returns the count fired.  Must be
    called with monotonically non-decreasing [now].  A timer is marked
    fired before [f] runs on its payload.  A timer that [f] adds or
    re-arms into the slot being swept is not fired by that sweep: it
    waits in the slot for the cursor's next visit. *)

val pending : 'a t -> int
(** Live (non-cancelled, non-fired) timers. *)
