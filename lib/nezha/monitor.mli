(** Centralized FE crash monitoring (§4.4).

    A single module health-checks every vSwitch hosting FEs.  Probes are
    asynchronous: each round fires one probe per target, and a collect
    sweep {!probe_timeout} later scores targets whose reply has not come
    back as a miss — so a probe routed over the fabric ({!Fabric.ping})
    genuinely misses under loss or a partition.  A target that misses
    {!misses_to_fail} consecutive probes is declared failed, which bounds
    detection latency at [interval × misses_to_fail + probe_timeout].

    §C.2's lesson is built in: when a collect sweep finds at least
    {!mass_failure_fraction} of all targets down simultaneously, the
    module suspects a monitoring bug rather than a real mass outage and
    suspends automatic removal for that round (counted, so operators —
    and tests — can see it).

    Re-watching a key resets its miss counter even mid-round: a probe
    already in flight for the replaced registration is discarded at
    collect time, counting neither way. *)

open Nezha_engine

(** {1 Probe cadence (§4.4)} *)

val interval : float
(** One probe round every 0.5 s. *)

val probe_timeout : float
(** A reply is due [interval /. 2] (0.25 s) after its probe. *)

val misses_to_fail : int
(** Consecutive missed probes before a target is declared failed: 3. *)

val mass_failure_fraction : float
(** Share of targets failing in one sweep that suspends removal: 80%. *)

(** {1 Monitoring} *)

type t

val create : sim:Sim.t -> t
(** A monitor with no targets, not yet probing. *)

val watch_probe :
  t -> key:int -> probe:(reply:(unit -> unit) -> unit) -> on_fail:(key:int -> unit) -> unit
(** Add (or reset) a target.  [probe ~reply] launches one health check;
    the implementation calls [reply ()] when (and if) the answer arrives
    — before the collect deadline, or the round counts as missed.
    [on_fail] fires once when the target is declared failed (it is then
    unwatched). *)

val watch : t -> key:int -> alive:(unit -> bool) -> on_fail:(key:int -> unit) -> unit
(** Synchronous convenience over {!watch_probe}: [alive] is consulted at
    probe launch and replies instantly when true. *)

val unwatch : t -> key:int -> unit
val watched : t -> int

val is_suspect : t -> key:int -> bool
(** A watched target with at least one consecutive missed probe — not
    yet declared failed, but not trusted either.  Placement avoids
    suspects; the SLO loop feeds the suspect fraction into its §C.2
    suppression window. *)

val suspects : t -> int list
(** All suspect keys, sorted (deterministic iteration for callers). *)

val start : t -> unit
(** Begin probing.  Idempotent. *)

val stop : t -> unit

val probes_sent : t -> int

val probes_missed : t -> int
(** Probes whose reply did not arrive by the collect deadline. *)

val failures_declared : t -> int
val mass_failure_suspected : t -> int
(** Rounds where auto-removal was suspended (§C.2). *)

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Publish probe/failure counters and the watched-target gauge under
    [monitor/...]. *)
