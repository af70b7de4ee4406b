(** The Nezha controller (§4): offload/fallback orchestration, remote-pool
    scale-out/-in, and failover.

    Every vSwitch periodically reports CPU/memory utilization.  Above the
    offload threshold the controller offloads the heaviest vNICs to a set
    of idle FEs through the dual-running two-stage workflow (§4.2.1);
    FE-hosting vSwitches crossing the (lower) scale threshold either gain
    FEs elsewhere (remote pressure) or evict their FEs (local pressure),
    per Fig. 8.  A centralized {!Monitor} detects FE crashes and failover
    completes by dropping the dead FE from every BE's location config
    while keeping at least {!Policy.min_fes} (§4.4).

    Every decision is {!Policy.step}'s; this module is the effect layer.
    It turns node reads and RPC acks into {!Policy.input}s and carries
    the {!Policy.intent}s out as RPCs, simulator schedules, gateway
    routes and learning. *)

open Nezha_engine
open Nezha_net
open Nezha_fabric
open Nezha_vswitch

(** {1 Control-plane constants}

    The paper's policy constants (thresholds, FE counts and ceilings,
    overload level) are {!Policy}'s. *)

val push_bytes_per_s : float
(** Rule-table push bandwidth to an FE: 200 MB/s. *)

(** {2 Control-plane RPCs}

    Every controller→server RPC takes a log-normal latency around
    [rpc_latency]; an attempt the fault plane loses is retried after
    {!rpc_retry_delay}, and the RPC is abandoned after [rpc_max_retries]
    retries. *)

val rpc_latency : float
(** Median RPC latency: 180 ms. *)

val rpc_timeout : float
(** An attempt is declared lost after 500 ms. *)

val rpc_backoff : float
(** Exponential backoff base: 2. *)

val rpc_backoff_cap : float
(** Ceiling on any single backoff wait: 5 s. *)

val rpc_max_retries : int
(** Retries before giving up on a server: 4. *)

val rpc_retry_delay : attempt:int -> float
(** The wait before re-attempting after failed attempt number [attempt]
    (0-based): [min (rpc_timeout × rpc_backoff^attempt) rpc_backoff_cap].
    @raise Invalid_argument on a negative [attempt]. *)

(** The remaining policy constants are {!Policy}'s; the 200 ms
    vNIC-server learning interval (§4.2.1) plus 0.5 ms in-flight slack
    stay internal.  FE health probing is {!Monitor}'s (§4.4). *)

type config = {
  report_interval : float;  (** utilization report period *)
  auto_offload : bool;
  auto_scale : bool;
  auto_fallback : bool;
      (** fall back after {!Policy.fallback_idle_ticks} idle reports *)
  placement : Placement.policy;
      (** FE candidate selection: the paper's least-loaded ordering, or
          power-of-two-choices over the live load signal (DESIGN.md
          §15) *)
  slo : Slo.config option;
      (** when set, an {!Slo} loop rides the report tick: observed P99
          remote-hop latency (drained from every BE tracker) drives
          pool scale-out/scale-in with hysteresis, cooldown and §C.2
          suppression *)
}

val default_config : config

type t

type offload
(** A live offload: one vNIC whose tables moved to a set of FEs. *)

(** The collected BE re-advertisements plus the node-side FE service
    handles (DESIGN.md §13).  Conceptually this state is owned by the
    *nodes* — each BE re-advertises its offload on boot, each FE
    service lives on its server — so it survives a controller crash;
    the registry is the rendezvous an HA pair shares, which a standby
    rebuilds its world from on takeover. *)
module Registry : sig
  type t

  val create : unit -> t
  val entries : t -> int
end

val create : ?config:config -> fabric:Fabric.t -> rng:Rng.t -> unit -> t
(** Also subscribes to the fabric's node-lifecycle events: a server
    crash closes the offload handles that died with it (and marks the
    affected offloads repairing); a restart triggers {e reconciliation}
    — the node's BE re-advertisements and FE provisioning requests are
    replayed behind one config RPC, restoring intent under the current
    epoch. *)

val config : t -> config
val fabric : t -> Fabric.t
val monitor : t -> Monitor.t

val start : t -> unit
(** Begin report sampling, automatic policies and crash monitoring. *)

(** {1 Orchestration} *)

val offload_vnic :
  t ->
  server:Topology.server_id ->
  vnic:Vnic.id ->
  ?num_fes:int ->
  ?version_filter:(int -> bool) ->
  unit ->
  (offload, string) result
(** Trigger remote offloading for a vNIC (also called by the automatic
    policy).  Runs the dual-running stage and schedules the final stage;
    returns immediately with the offload handle.  [num_fes] defaults to
    {!Policy.initial_fes}.

    [version_filter] restricts FE candidates by vSwitch software version —
    §7.2's new capabilities: offload to *upgraded* vSwitches to release a
    feature without fleet-wide rollout, or to *older, bug-free* ones for
    cost-effective fault recovery. *)

val fallback_vnic : t -> offload -> (unit, string) result
(** Reverse an offload (§4.2.2).  Fails if the BE cannot re-host the rule
    tables. *)

val scale_out : t -> ?avoid:Topology.server_id list -> offload -> add:int -> int
(** Add up to [add] FEs; returns how many were actually added (candidate
    supply permitting).  [avoid] blacklists servers beyond the current
    FE set (failover passes the just-declared-dead host). *)

val scale_in_server : t -> Topology.server_id -> unit
(** Evict every FE on this server (local pressure or failover),
    replenishing any offload that falls below {!Policy.min_fes}. *)

val scale_in_offload : t -> offload -> remove:int -> int
(** SLO-driven targeted scale-in: drop up to [remove] FEs from this
    offload (never below {!Policy.min_fes}), cross-rack and most-loaded victims
    first; routing updates immediately, tables release after the
    learning window.  Returns how many were removed. *)

val update_tenant_rules : t -> offload -> (Ruleset.t -> unit) -> unit
(** Apply a tenant configuration change to an offloaded vNIC: the
    mutation runs on the master copy and on every FE replica (and on the
    BE's local tables during dual-running); stale cached flows are
    invalidated everywhere, exactly as §3.2.2 prescribes — regeneration
    happens lazily on the next lookups. *)

val migrate_be : t -> offload -> to_server:Topology.server_id -> (unit, string) result
(** §7.2 "efficient VM live migration": move the BE (the VM moved to a
    new server) by updating the BE location config on every FE — a
    sub-millisecond config change instead of re-pushing rule tables.
    Session states are carried with the VM (the hypervisor migrates
    them); the offloaded tables never move. *)

val pin_elephant : t -> offload -> Five_tuple.t -> (Topology.server_id, string) result
(** §7.5: give an elephant flow a dedicated FE.  A fresh candidate is
    configured with the vNIC's tables and installed as a per-flow
    override on the BE, so the elephant's TX traffic monopolizes that
    SmartNIC and stops contending with other tenants.  (Sender-side ECMP
    for the RX direction is hash-driven and left unchanged.)  Returns
    the dedicated FE's server. *)

(** {1 Crash–restart, fencing, HA (DESIGN.md §13)} *)

val halt : t -> unit
(** The controller process crashed: it applies nothing further, its
    in-flight RPC continuations die on arrival, and its monitor stops
    probing.  (State is NOT wiped — a revived stale primary is exactly
    the split-brain hazard the epoch fence exists for.) *)

val revive : t -> unit
(** Restart a halted controller process with its stale in-memory state
    (the split-brain scenario).  Its epoch is unchanged, so every
    fenced component rejects its commands until it re-syncs. *)

val alive : t -> bool

val epoch : t -> int
(** The fencing token presented with every mutating command.  vSwitches
    and the gateway track the highest epoch observed and reject lower
    ones, which is what makes a revived stale primary provably unable
    to flap placements. *)

val set_epoch : t -> int -> unit

val set_registry : t -> Registry.t -> unit
(** Attach the shared node-state registry (both members of an HA pair
    attach the same one).  The FE-service table is aliased from it. *)

val adopt_from_registry : t -> int
(** Standby takeover: rebuild offload intent from the registry's BE
    re-advertisements.  Already-known entries are kept; each adopted
    offload is marked repairing so the next anti-entropy sweep verifies
    and restores its dataplane state under the new epoch.  Returns the
    number of offloads adopted. *)

val check_conservation : t -> bool
(** The §13 conservation invariant: every intended (active, completed)
    offload is fully installed, marked repairing, or explicitly
    fallback-local — never silently absent from the dataplane. *)

val fenced_rejected : t -> int
(** Commands this controller abandoned because a component held a
    higher epoch (the split-brain counter). *)

val stale_discards : t -> int
(** RPC replies discarded because the target node's incarnation changed
    (or the node is down) while the exchange was in flight. *)

val reconciles : t -> int
(** Node-restart reconciliation rounds run. *)

val repairs : t -> int
(** Individual divergences repaired (reconciliation + anti-entropy). *)

(** {1 Introspection} *)

val find_offload : t -> server:Topology.server_id -> vnic:Vnic.id -> offload option
val offloads : t -> offload list
val offload_vnic_id : offload -> Vnic.id
val offload_be_server : offload -> Topology.server_id
val offload_fe_servers : offload -> Topology.server_id list
val offload_be : offload -> Be.t
val offload_stage : offload -> Be.stage
val offload_completed_at : offload -> float option

val fe_service : t -> Topology.server_id -> Fe.t option
(** The FE service installed on a server (if it ever hosted FEs). *)

val last_cpu : t -> Topology.server_id -> float
val last_mem : t -> Topology.server_id -> float

val load_signal : t -> Topology.server_id -> float
(** The p2c placement load signal: EWMA-smoothed reported CPU plus a
    fixed pressure term per vNIC already steered at the server. *)

val slo : t -> Slo.t option
(** The SLO decision state when [config.slo] is set. *)

val slo_pool_size : t -> int
(** Distinct FE servers across active offloads — the pool the SLO loop
    sizes. *)

(** {1 Experiment instrumentation} *)

val completion_times_ms : t -> Stats.Histogram.t
(** Offload-activation completion times (Table 4). *)

val offload_events : t -> int
val scale_out_events : t -> int
val fes_provisioned : t -> int
(** Cumulative FEs ever configured (App. B.2 accounting). *)

val rpc_attempts : t -> int
val rpc_retries : t -> int
(** Control-plane RPC attempts lost to the fault plane and retried. *)

val rpc_failures : t -> int
(** RPCs abandoned after {!rpc_max_retries} retries. *)

val overload_occurrences : t -> Topology.server_id -> int
(** Report ticks with utilization above {!Policy.overload_level} (Fig. 13). *)

val total_overload_occurrences : t -> int

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Publish controller metrics ([controller/...], including the
    completion-time histogram) and the monitor's ([monitor/...]), and
    remember the registry: FE services and BEs the controller creates
    from now on self-register under [fe/...] and [be/...], as do any
    already alive. *)

val pp_status : Format.formatter -> t -> unit
(** Operator view: every active offload with its stage, BE/FE placement
    and dataplane counters, plus the monitor's health. *)
