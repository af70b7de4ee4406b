(** Latency-SLO autoscaling decisions (DESIGN.md §15, after Meili).

    The paper's controller scales the FE pool on a CPU threshold; the
    production interface is a latency budget.  This module is the pure
    decision core: feed it the observed P99 remote-hop latency each
    report tick and it answers scale-out / scale-in / hold, with the
    anti-flap rules that make the loop safe to wire to a real pool:

    - {b hysteresis}: a dead band around the target — only a P99 above
      [target ×(1 + band)] scales out, only one below
      [target ×(1 - band)] scales in, so noise inside the band never
      moves the pool;
    - {b cooldown}: after any resize the loop holds for [cooldown]
      seconds so the previous decision's effect is visible in the
      signal before the next one;
    - {b warmup}: no decision before [warmup] seconds of signal, so a
      cold start does not scale on garbage;
    - {b mass-failure suppression} (§C.2, PR 3): when more than
      [suppress_fraction] of the pool is simultaneously suspect the
      latency signal is assumed to reflect the failure, not demand, and
      decisions are suppressed for [suppress_hold] seconds;
    - {b serving floor / ceiling}: scale-in never drops the pool below
      [min_pool]; scale-out never exceeds [max_pool]; either direction
      moves at most [max_step] servers per decision.

    The module is pure state-machine logic over numbers — no sim, no
    I/O — so the decision table is unit-testable without a cluster. *)

type config = {
  target_p99 : float;  (** latency budget, seconds *)
  band : float;  (** hysteresis half-width as a fraction of target *)
  cooldown : float;  (** seconds to hold after a resize *)
  warmup : float;  (** seconds of signal required before first decision *)
  min_pool : int;  (** serving minimum — scale-in floor *)
  max_pool : int;  (** scale-out ceiling *)
  max_step : int;  (** max servers added/removed per decision *)
  suppress_fraction : float;
      (** suspect fraction of the pool above which decisions are
          suppressed (§C.2) *)
  suppress_hold : float;  (** seconds a suppression window lasts *)
}

val default_config : config
(** 5 ms target, 20% band, 10 s cooldown, 5 s warmup, pool 2..64,
    2 per step, suppress above 30% suspects for 30 s. *)

type reason =
  | Within_band  (** P99 inside the hysteresis band *)
  | Above_target  (** P99 above the band — wants capacity *)
  | Below_target  (** P99 below the band — capacity to spare *)
  | Cooling_down  (** a resize is still settling *)
  | Warming_up  (** not enough signal yet *)
  | No_signal  (** no P99 sample this tick *)
  | Suppressed  (** mass-failure window active (§C.2) *)
  | At_min  (** wants in, already at the serving minimum *)
  | At_max  (** wants out, already at the ceiling *)

type decision = Scale_out of int | Scale_in of int | Hold of reason

val reason_code : reason -> int
(** Stable small-int encoding for telemetry gauges. *)

val decision_code : decision -> int
(** -1 scale-in, 0 hold, 1 scale-out. *)

val reason_of_decision : decision -> reason

val pp_decision : Format.formatter -> decision -> unit

type t

val create : ?config:config -> now:float -> unit -> t
(** [now] anchors the warmup clock. *)

val config : t -> config

val observe :
  t ->
  now:float ->
  p99:float option ->
  pool:int ->
  suspects:int ->
  decision
(** One report tick: [p99] is the observed P99 remote-hop latency over
    the last window (None when the window held no remote hops), [pool]
    the current FE pool size, [suspects] how many pool members are
    currently suspected unhealthy.  Returns the decision; the caller
    applies it (or not — the state machine only assumes it was applied
    when it actually changed the pool, which the next [observe] sees
    via [pool]). *)

(* Introspection for telemetry and tests. *)

val last_decision : t -> decision option
val last_p99 : t -> float option
val scale_outs : t -> int
val scale_ins : t -> int
val suppressed_ticks : t -> int
val in_suppression : t -> now:float -> bool

val register_telemetry :
  t -> prefix:string -> Nezha_telemetry.Telemetry.t -> unit
(** Publish [<prefix>/target_p99_s], [observed_p99_s], [last_decision]
    (-1/0/1), [last_reason] (see {!reason_code}), [scale_outs],
    [scale_ins], [suppressed_ticks]. *)
