(** Discrete-event simulation core.

    A simulation owns a virtual clock and two event sources: a binary
    heap for exact-time events and a lazily created timer wheel for
    coarse mass timers ([timeout]).  Events scheduled for the same
    instant fire in scheduling order (a monotone sequence number breaks
    ties), which keeps runs deterministic.

    The heap keeps each event's time, sequence number and pool slot in
    three unboxed parallel arrays; the slot holds the action and the
    sequence number of the event queued there.  Sifting moves no
    pointer, so it runs no write barrier.  Slots are recycled and a
    handle is an immediate [int], so a warm simulation allocates
    nothing for an event but its action: [every] reuses one closure
    across all firings.  Wheel timers bypass the heap entirely, and a
    [timeout] loop keeps one wheel node across all its firings.

    For region-scale runs, {!Sharded} partitions work across several
    simulations advanced in conservative-sync windows (see DESIGN.md
    §10). *)

type t

type handle [@@immediate]
(** A scheduled event, usable for cancellation: its pool slot and its
    sequence number in one [int].  It names its event only while that
    event is queued; once the event has fired or been cancelled, the
    handle is stale, even after its slot holds a later event. *)

type timer
(** A wheel-backed coarse timer loop (see {!timeout}). *)

val create :
  ?capacity:int -> ?timer_tick:float -> ?timer_slots:int -> unit -> t
(** A fresh simulation with the clock at 0.  [capacity] pre-sizes the
    event heap (default 256).  [timer_tick] / [timer_slots] configure
    the wheel behind {!timeout} (defaults 1 ms x 1024 slots); the wheel
    itself is only allocated on first use. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative delays
    are clamped to 0 (fire "now", after currently queued same-time
    events). *)

val at : t -> time:float -> (t -> unit) -> handle
(** Absolute-time variant.  Times before [now] are clamped to [now]. *)

val cancel : t -> handle -> unit
(** Cancel a pending event.  Cancelling an already-fired or
    already-cancelled event is a no-op.  A handle means something only
    to the simulation that issued it. *)

val cancelled : t -> handle -> bool
(** [true] once the event has fired or been cancelled. *)

val timeout : t -> delay:float -> (t -> float option) -> timer
(** [timeout t ~delay f] schedules [f] on the timer wheel: O(1) insert
    and no heap traffic, at the cost of coarse granularity — [f] fires
    at the first wheel-slot boundary at or after [now +. delay] (within
    one [timer_tick] of the deadline).  When [f] returns [Some d] it
    fires again [d] after the instant it ran (negative [d] counts as 0),
    exactly as if it had called [timeout] with [~delay:d] as its last
    act; [None] ends the loop.  The loop re-arms its one wheel node in
    place, so a firing allocates no timer.  Use for mass per-flow /
    per-retransmit timers and periodic coarse ticks; use [schedule]
    when exact timing matters. *)

val cancel_timer : timer -> unit
(** O(1); stops the loop.  A cancel from inside the loop's own [f] wins
    over the delay [f] returns.  Cancelling a loop that has ended only
    marks it cancelled. *)

val timer_cancelled : timer -> bool

val every : t -> period:float -> ?jitter:(unit -> float) -> (t -> bool) -> unit
(** [every t ~period f] runs [f] now and then every [period] (plus
    [jitter ()] if given) until [f] returns [false].  All firings share
    one tick closure; re-arming takes back a recycled queue slot, so a
    periodic task allocates nothing per period.
    @raise Invalid_argument if [period <= 0]. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain both event sources in time order.  Stops when nothing is
    pending, when the next event would fire after [until], or after
    [max_events] events ([max_events] may overshoot by the contents of
    one wheel slot).  When stopped by [until], the clock is advanced to
    [until] exactly. *)

val step : t -> bool
(** Execute one engine turn — the next heap event or the next due wheel
    slot, whichever is earlier (the wheel wins ties).  [false] when
    nothing is pending. *)

val pending : t -> int
(** Events still queued (including cancelled placeholders) plus live
    wheel timers. *)

val events_executed : t -> int
(** Events run so far; wheel timers count when they fire. *)

val pool_stats : t -> int * int
(** [(reused, fresh)] queue slots handed out: [fresh] is the most events
    ever queued at once, [reused] every other enqueue.  A warm
    simulation should reuse almost always. *)

val cross : t -> t -> delay:float -> (t -> unit) -> unit
(** [cross src dst ~delay f] schedules [f] on [dst] at
    [now src +. delay].  When [src] and [dst] are the same simulation
    this is a plain [schedule]; when they are distinct shards of the
    same {!Sharded.cluster} the event goes through the cross-shard
    mailbox (and [delay] must be at least the cluster lookahead).
    @raise Invalid_argument for unrelated simulations. *)

(** Sharded conservative-sync execution.

    A cluster partitions the workload across [shards] independent
    simulations.  Time advances in windows of width [lookahead]: each
    iteration delivers queued cross-shard messages, finds the minimum
    next-event time [m] across shards, and lets every shard execute all
    its events in [[m, m + lookahead)].  This is safe because a
    cross-shard message sent from inside the window (clock >= m, delay
    >= lookahead) arrives at or after the window's end — no shard can
    receive an event "from the past".

    Determinism: mailbox delivery is sorted by (arrival time, source
    shard, source sequence), so a given cluster layout replays
    identically for a given seed.  Runs are additionally independent of
    the shard {e count} iff all cross-shard interaction goes through
    [send]/[cross] with delay >= lookahead and same-time deliveries
    commute (e.g. counter updates, per-flow state keyed by source) —
    see DESIGN.md §10 for the full contract. *)
module Sharded : sig
  type cluster

  val create :
    ?capacity:int ->
    ?timer_tick:float ->
    ?timer_slots:int ->
    shards:int ->
    lookahead:float ->
    unit ->
    cluster
  (** [lookahead] must be a lower bound on every cross-shard
      scheduling delay (for a rack-partitioned fabric: the minimum
      cross-rack hop latency).
      @raise Invalid_argument if [shards <= 0] or [lookahead <= 0]. *)

  val shard : cluster -> int -> t
  val shard_count : cluster -> int
  val lookahead : cluster -> float

  val shard_id : t -> int option
  (** The shard index of a member simulation; [None] for a standalone
      simulation. *)

  val send : t -> dst:int -> delay:float -> (t -> unit) -> unit
  (** [send src ~dst ~delay f] schedules [f] on shard [dst] at
      [now src +. delay].  Same-shard (or unclustered) sends degrade to
      a plain [schedule]; cross-shard sends go through the mailbox.
      @raise Invalid_argument if [dst] is out of range or a cross-shard
      [delay] is below the cluster lookahead. *)

  val run : ?until:float -> cluster -> unit
  (** Advance every shard in conservative-sync windows until nothing is
      pending (or the next window would start after [until], in which
      case all clocks park at [until]). *)

  val now : cluster -> float
  (** Minimum clock across shards — a lower bound on global time. *)

  val pending : cluster -> int
  val events_executed : cluster -> int

  val messages_delivered : cluster -> int
  (** Cross-shard mailbox messages delivered so far. *)
end
