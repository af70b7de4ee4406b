(** The delivery engine: wires vSwitches, VMs and the gateway together
    over the topology's latencies, with an optional fault-injection
    plane ({!Faults}) consulted on every hop. *)

open Nezha_engine
open Nezha_vswitch

type t

(** Why a packet vanished in the underlay.  [Fault_injected] covers both
    probabilistic losses and partition drops from the {!Faults} plane;
    the other three are wiring bugs or crashed/removed nodes. *)
type drop_reason = No_vxlan | No_such_server | No_vswitch | Fault_injected

val create : sim:Sim.t -> topology:Topology.t -> t
(** [sim] is the base simulation: it runs the gateway and any server not
    explicitly placed elsewhere with [add_server ~sim].  For sharded
    runs, pass a member of a {!Sim.Sharded} cluster (conventionally
    shard 0) and place each server on its rack's shard; hops between
    endpoints on different shards then cross the cluster mailbox.
    Cross-shard hop latencies must be at least the cluster lookahead —
    rack-aligned placement satisfies this, since the cheapest
    cross-rack hop ([Topology.cross_rack_latency]) bounds it. *)

val sim : t -> Sim.t

val server_sim : t -> Topology.server_id -> Sim.t
(** The simulation the server's events run on ([sim t] unless the
    server was added with an explicit [~sim]). *)

val topology : t -> Topology.t
val gateway : t -> Gateway.t

val set_faults : t -> Faults.t option -> unit
(** Attach (or detach) the impairment plane.  Without one, every hop
    passes — the seed fabric's behaviour, at zero rng cost.

    Attaching a plane also wires its node-lifecycle half into this
    fabric: {!Faults.crash_server} / {!Faults.crash_vswitch} wipe the
    hosted vSwitch's volatile state and crash its SmartNIC at the crash
    instant, the restart calls recover the NIC, and registered
    {!on_lifecycle} watchers are notified either way.  The plane's
    chaos scheduling is given the per-server shard sims
    ({!Faults.set_shard_lookup}).  Attach at most one plane per
    fabric. *)

val faults : t -> Faults.t option

val on_lifecycle : t -> (server:Topology.server_id -> [ `Crashed | `Restarted ] -> unit) -> unit
(** Watch node crash/restart events (fired synchronously from the
    fault plane's hooks, after the dataplane wipe).  The controller
    subscribes to drive reconciliation. *)

val set_tracer : t -> Nezha_telemetry.Trace.t option -> unit
(** Attach the flight recorder: each surviving hop of a traced packet
    emits a [Wire] span (fault-injected extra delay included, NSH hops
    classified remote), fault drops leave a mark, and a duplicated
    twin is taken off the trace so downstream stages are not counted
    twice. *)

val tracer : t -> Nezha_telemetry.Trace.t option

val add_server : t -> ?sim:Sim.t -> Topology.server_id -> params:Params.t -> Vswitch.t
(** Create a vSwitch on the server, install its transmit path, and
    register it for delivery.  [sim] places the server (vSwitch,
    SmartNIC, timers and all deliveries to it) on a specific shard of a
    {!Sim.Sharded} cluster; default is the fabric's base simulation.
    @raise Invalid_argument if the server already has one or the id is
    out of range. *)

val vswitch : t -> Topology.server_id -> Vswitch.t
(** @raise Not_found when the server has no vSwitch. *)

val vswitch_opt : t -> Topology.server_id -> Vswitch.t option

val server_of_vswitch : t -> Vswitch.t -> Topology.server_id

val attach_vm : t -> Topology.server_id -> Vnic.id -> Vm.t -> unit
(** Deliveries ([To_vm]) for this vNIC reach the VM's kernel model.
    Unattached vNICs sink their deliveries (still counted). *)

val vm_of : t -> Topology.server_id -> Vnic.id -> Vm.t option

val set_tap : t -> (time:float -> Nezha_net.Packet.t -> unit) option -> unit
(** A wire tap: invoked for every packet as it enters the underlay
    (still encapsulated).  Pair with {!Nezha_net.Frame.synthesize} and
    {!Nezha_net.Pcap} to capture simulation traffic as a pcap file. *)

val deliver_to_server : t -> src:Topology.server_id -> Nezha_net.Packet.t -> unit
(** Inject an encapsulated packet into the underlay as if [src]'s
    vSwitch had transmitted it.  Normally called via the vSwitch
    transmit hook; exposed for tests and custom sources. *)

val deliver_batch_to_server :
  t -> src:Topology.server_id -> Nezha_net.Pbatch.t -> unit
(** Batched form of {!deliver_to_server} (the sink installed on every
    vSwitch): takes ownership of the burst, consults the fault plane per
    packet in arrival order, and ships maximal same-destination runs as
    single scheduled deliveries into [Vswitch.from_net_batch] (a run
    spanning the whole burst travels as the burst itself). *)

val ping : t -> dst:Topology.server_id -> reply:(unit -> unit) -> unit
(** A liveness probe round-trip from the gateway side: request leg,
    vSwitch-alive check at [dst] (present and its SmartNIC not crashed),
    reply leg.  Each leg traverses the fault plane, so loss or a
    partition silently eats the probe; [reply] fires only on success,
    after both legs' latencies. *)

val delivered_to_vms : t -> int
(** Packets handed to VM models or sunk. *)

val lost : t -> int
(** Total packets that vanished in the underlay, all reasons combined. *)

val lost_by : t -> drop_reason -> int

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** [fabric/delivered_to_vms], per-reason [fabric/lost/...], gateway
    forwarded/dropped, the [pbatch/pool/taken] and
    [pbatch/pool/recycled] batches of the shared arena since
    registration (equal at quiescence unless batches leaked), and —
    when a fault plane is attached — the [fabric/faults/...]
    counters. *)
