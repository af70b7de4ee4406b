(** Deterministic fault-injection plane for the underlay.

    The fabric consults this module on every hop (server↔server,
    server↔gateway) before scheduling a delivery.  Impairments are
    probabilistic — drop, duplication, reordering (extra jitter delay) —
    and configured per directed link, with a fleet-wide default; hard
    partitions (a link, a server, a whole rack) drop deterministically
    until healed.

    All randomness comes from a private {!Nezha_engine.Rng} stream, and a
    draw happens only when the consulted link has a non-zero probability,
    so an unimpaired plane consumes no randomness at all: the same seed
    produces byte-identical runs, chaos schedules included. *)

open Nezha_engine

type t

(** One end of a hop.  [Gateway] is the default-route box of §4.2.1;
    everything else is a server addressed by its topology id. *)
type endpoint = Server of Topology.server_id | Gateway

type impairment = private {
  loss : float;  (** P(drop) per traversal *)
  dup : float;  (** P(duplicate); the copy arrives up to 100 µs later *)
  reorder : float;
      (** P(extra jitter delay of up to 100 µs), which reorders vs later
          sends *)
}

val perfect : impairment
(** All probabilities zero — the seed fabric's behaviour. *)

val impair : ?loss:float -> ?dup:float -> ?reorder:float -> unit -> impairment
(** Build an impairment; an absent probability is zero.
    @raise Invalid_argument when a probability is outside [0, 1]. *)

val create : sim:Sim.t -> topology:Topology.t -> rng:Rng.t -> unit -> t
(** The plane starts perfect: no impairments, no partitions. *)

(** {1 Probabilistic impairments} *)

val set_default : t -> impairment -> unit
(** Baseline applied to every link without an override. *)

val set_link : t -> src:endpoint -> dst:endpoint -> impairment -> unit
(** Directional per-link override (replaces any previous one). *)

val clear_link : t -> src:endpoint -> dst:endpoint -> unit

val clear_all : t -> unit
(** Back to a perfect network: default and overrides reset, every
    partition healed.  Counters are kept. *)

(** {1 Hard partitions} *)

val cut_link : t -> src:endpoint -> dst:endpoint -> unit
(** Directional: [src]'s packets to [dst] vanish; the reverse direction
    still works unless cut separately. *)

val heal_link : t -> src:endpoint -> dst:endpoint -> unit

val cut_server : t -> Topology.server_id -> unit
(** Isolate one server in both directions (its NIC still runs — unlike
    {!Nezha_vswitch.Smartnic.crash} the node itself is healthy). *)

val heal_server : t -> Topology.server_id -> unit

val cut_rack : t -> rack:int -> unit
(** Isolate a rack: hops crossing its boundary (including to/from the
    gateway) drop; intra-rack hops keep working. *)

val heal_rack : t -> rack:int -> unit

val partitioned : t -> src:endpoint -> dst:endpoint -> bool

(** {1 Node lifecycle (crash / restart)}

    A {e crashed server} is partitioned in both directions — in-flight
    packets to it vanish at the fabric — and its volatile state is
    wiped by the registered {!on_crash} hooks.  A {e crashed vSwitch}
    keeps its links (the host is up, the dataplane process is down):
    packets still arrive but the crashed SmartNIC drops the work.
    Either way the node's {!incarnation} is bumped, so replies and
    retransmits born before the crash can be recognised as stale and
    discarded on arrival. *)

val crash_server : t -> ?reboot_after:float -> Topology.server_id -> unit
(** Crash the whole node.  [reboot_after] schedules the matching
    {!restart_server} on the owning shard sim.  No-op if already down. *)

val restart_server : t -> Topology.server_id -> unit
(** Heal the partition and fire the {!on_restart} hooks (the fabric
    re-registers the node; reconciliation is the controller's job). *)

val crash_vswitch : t -> ?reboot_after:float -> Topology.server_id -> unit
(** vSwitch-process-only crash: links stay up, the dataplane is wiped
    and down until {!restart_vswitch}. *)

val restart_vswitch : t -> Topology.server_id -> unit

val is_crashed : t -> Topology.server_id -> bool
(** True while the node (either variant) is down. *)

val incarnation : t -> Topology.server_id -> int
(** Number of crashes this node has suffered; 0 for a never-crashed
    node.  Stamped on RPCs so pre-crash replies are discarded. *)

val on_crash : t -> (Topology.server_id -> unit) -> unit
(** Register a hook fired synchronously at the crash instant, after the
    node is marked down (hooks run in registration order). *)

val on_restart : t -> (Topology.server_id -> unit) -> unit

val server_crashes : t -> int
(** Crash events injected so far (both variants). *)

val server_restarts : t -> int

(** {1 Scheduling}

    Sugar for chaos scripts: apply a mutation at an absolute simulated
    time ([Sim.at] underneath).  When [server] is given and a shard
    lookup is installed, the event lands on that server's owning shard
    sim — required for shard-count-invariant chaos under
    {!Nezha_engine.Sim.Sharded}. *)

val at : t -> ?server:Topology.server_id -> time:float -> (t -> unit) -> unit

val set_shard_lookup : t -> (Topology.server_id -> Sim.t) -> unit
(** Install the server→owning-sim map (the fabric does this when it is
    built shard-aware); without it everything schedules on the root
    sim. *)

(** {1 Consultation (fabric-facing)} *)

type verdict =
  | Pass
  | Drop
  | Duplicate of float  (** deliver, plus a copy after this extra delay *)
  | Delay of float  (** deliver after this extra delay (reordering) *)

val consult : t -> src:endpoint -> dst:endpoint -> verdict
(** One traversal of the [src → dst] hop.  Draws from the private rng
    (only if the effective impairment is non-trivial) and counts the
    outcome. *)

(** {1 Observability} *)

val drops_injected : t -> int
(** Probabilistic losses (not partition drops). *)

val dups_injected : t -> int
val reorders_injected : t -> int
val partition_drops : t -> int
val consults : t -> int

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Counters under [fabric/faults/...] plus a gauge for the number of
    active cuts. *)
