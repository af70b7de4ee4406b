(** The SmartNIC-based vSwitch (§2.1).

    A vSwitch owns vNICs (each with rule tables and a session table
    region), a {!Smartnic} resource model, and the traditional local
    datapath: fast path on session-table hits, slow path (rule-table
    pipeline + session setup) on misses.

    Nezha integrates through two hooks rather than a fork of the
    datapath — mirroring the paper's claim that deployment modified less
    than 5% of vSwitch code (§6.4):

    - a per-vNIC {!intercept} that sees TX packets from the local VM and
      RX packets addressed to the vNIC before the local path runs (the BE
      role and the dual-running logic live there);
    - a switch-wide {!net_hook} that sees underlay packets not addressed
      to any local vNIC (the FE role lives there). *)

open Nezha_engine
open Nezha_net
open Nezha_tables

type t

(** Where a processed packet goes next. *)
type output =
  | To_vm of Vnic.id * Packet.t  (** deliver to the local VM owning the vNIC *)
  | To_net of Packet.t  (** VXLAN-encapsulated; [outer_dst] names the next server *)

type sink = {
  on_output : output -> unit;
      (** one packet at a time: every [To_vm], plus the control sends
          (acks, notifies, bounces, mirrors) the BE and FE emit, which
          the fabric ships as bursts of one *)
  on_net_batch : Pbatch.t -> unit;
      (** an encapsulated net burst; the sink takes ownership and
          recycles the batch *)
}
(** The transmit side of the vSwitch, batch-aware.  The fabric (or any
    harness standing in for it) installs one with {!set_sink}. *)

type counters = {
  rx_packets : Stats.Counter.t;  (** packets entering from the underlay *)
  tx_packets : Stats.Counter.t;  (** packets entering from local VMs *)
  delivered : Stats.Counter.t;  (** packets handed to local VMs *)
  forwarded : Stats.Counter.t;  (** packets sent to the underlay *)
  slow_path_execs : Stats.Counter.t;
  fast_path_hits : Stats.Counter.t;
  sessions_created : Stats.Counter.t;
  notify_packets : Stats.Counter.t;
  drops : Stats.Counter.t array;  (** indexed by {!Nf.drop_reason_index} *)
}

val create :
  sim:Sim.t ->
  params:Params.t ->
  name:string ->
  underlay_ip:Ipv4.t ->
  gateway:Ipv4.t ->
  unit ->
  t
(** [gateway] is the underlay address packets take when the vNIC-server
    mapping has no entry for the peer (the default route of §4.2.1). *)

val name : t -> string
val sim : t -> Sim.t
val params : t -> Params.t
val underlay_ip : t -> Ipv4.t
val gateway : t -> Ipv4.t
val nic : t -> Smartnic.t
val counters : t -> counters

val software_version : t -> int
(** vSwitch release version (default 0).  §7.2 uses version targeting for
    flexible feature release (offload vNICs needing a new feature to
    upgraded vSwitches) and cost-effective fault recovery (offload away
    from a buggy release). *)

val set_software_version : t -> int -> unit

val drop_count : t -> Nf.drop_reason -> int
val total_drops : t -> int

(** {1 Crash–restart (DESIGN.md §13)} *)

val wipe_volatile : t -> unit
(** Model a dataplane-process crash: drop every session table entry
    (releasing its NIC memory), invalidate megaflow caches, forget
    in-flight learning queries, uninstall BE/FE packet hooks and
    intercepts, clear mirrors and flow-log backlog, zero the counters.
    Rulesets/vNIC registrations/rate limits are durable tenant config
    (re-pushed during reboot) and survive; so does the epoch fence.
    The fabric calls this from {!Nezha_fabric.Faults.crash_server}'s
    hook — pair with {!Smartnic.crash}/{!Smartnic.recover} for the
    reboot window. *)

val epoch : t -> int
(** Highest controller epoch ever observed (the fence high-water mark,
    durably persisted — survives {!wipe_volatile}). *)

val observe_epoch : t -> epoch:int -> bool
(** Fence check on a controller command: [true] (and the high-water
    mark advances) iff [epoch] is not lower than the highest seen — a
    stale primary's commands return [false] and must not be applied. *)

val epoch_rejections : t -> int
(** Commands refused by the fence. *)

val set_sink : t -> sink -> unit
(** Install the fabric's send functions.  Must be set before traffic
    runs. *)

(** {1 vNIC management} *)

val add_vnic : t -> Vnic.t -> Ruleset.t -> Admission.t
(** Reserves the ruleset's memory footprint; [Error `No_memory] models
    the #vNICs-limited-by-memory bottleneck (§2.2.2). *)

val remove_vnic : t -> Vnic.id -> unit
val vnic_count : t -> int
val find_vnic : t -> Vnic.Addr.t -> Vnic.t option
val vnic_ids : t -> Vnic.id list
val vnic_info : t -> Vnic.id -> Vnic.t option

type flow_record = {
  key : Flow_key.t;
  packets : int;
  bytes : int;
  first_dir : Packet.direction;
}
(** What flow logging emits when a counted session ages out — the
    "flow logging" advanced feature of §2.2.2's 12-table pipeline. *)

val set_flow_log_sink : t -> (flow_record -> unit) option -> unit

val set_mirror_target : t -> Ipv4.t option -> unit
(** Traffic mirroring (another §2.2.2 advanced feature): packets whose
    pre-actions carry the mirror flag are copied to this underlay
    collector. *)

val packets_mirrored : t -> int

val maybe_mirror : t -> Pre_action.t -> Packet.t -> unit
(** Copy the packet to the collector when the pre-actions ask for it and
    a target is configured.  Exposed so the FE datapath (which finalizes
    TX packets) applies the same policy. *)

val flow_records_emitted : t -> int

val set_rate_limit : t -> Vnic.id -> bps:float -> burst_bytes:float -> unit
(** Install (or replace) a vNIC-level TX rate limit (QoS).  Under Nezha
    enforcement needs no change: every TX packet of an offloaded vNIC
    still enters here before reaching any FE, so a single token bucket
    suffices — the distributed-rate-limiting problem of §2.3.3 never
    arises. *)

val clear_rate_limit : t -> Vnic.id -> unit

val ruleset : t -> Vnic.id -> Ruleset.t option
(** The vNIC's local rule tables; [None] after {!drop_ruleset}. *)

val drop_ruleset : t -> Vnic.id -> unit
(** Release the vNIC's rule tables and cached flows (the final stage of
    offloading, §4.2.1).  States are kept; a residual
    {!Params.be_residual_bytes_per_vnic} footprint remains reserved. *)

val restore_ruleset : t -> Vnic.id -> Ruleset.t -> Admission.t
(** Re-install rule tables locally (fallback, §4.2.2). *)

val sync_rule_memory : t -> Vnic.id -> Admission.t
(** Re-reserve memory after the controller mutated the vNIC's tables.
    Call after bulk mapping/ACL changes. *)

(** {1 Session table}

    Sessions are per-vNIC.  An entry holds the cached bidirectional
    pre-actions and/or the session state; under Nezha the BE keeps only
    states and the FE only pre-actions.

    A packet looks its session up once.  {!sessions} gives the vNIC's
    table and {!session_entry} a {!Flow_table.entry} handle in it; a
    packet that carries both through SmartNIC service passes the handle
    back as [?handle] to read, store or touch its session without
    hashing the key again.  A handle is good only in the table it came
    from (a vNIC removed and added again has a new one).  A handle that
    died in the meantime (the session was removed, aged out or wiped),
    or an absent one, sends the call down the key path. *)

type session = { pre : Pre_action.t option; state : State.t option; generation : int }

type sessions
(** One vNIC's session table. *)

val sessions : t -> Vnic.id -> sessions option
(** The vNIC's session table; [None] once the vNIC is gone. *)

val find_session : t -> Vnic.id -> Flow_key.t -> session option

val session_entry :
  sessions -> ?handle:session Flow_table.entry -> Flow_key.t -> session Flow_table.entry option
(** [handle] while it is live, else the key's entry now. *)

val session_value : sessions -> session Flow_table.entry -> session
(** @raise Invalid_argument if the entry is dead. *)

val store_session :
  t -> sessions -> ?handle:session Flow_table.entry -> Flow_key.t -> session -> Admission.t
(** Inserts or replaces, charging the memory model.  Establishing
    sessions get the short SYN aging time automatically (§7.3). *)

val remove_session : t -> Vnic.id -> Flow_key.t -> bool

val touch_session : t -> sessions -> ?handle:session Flow_table.entry -> Flow_key.t -> unit
(** Refresh the session's aging deadline; a no-op when it is gone. *)

val iter_sessions : t -> Vnic.id -> (Flow_key.t -> session -> unit) -> unit
val session_count : t -> Vnic.id -> int
val total_sessions : t -> int
val invalidate_cached_flows : t -> Vnic.id -> unit
(** Delete entries whose pre-actions predate the current rule-table
    generation (rule-table change semantics of §3.2.2). *)

(** {1 Datapath} *)

(** There is one local path, and it is batched: a single packet enters
    it as a batch of one. *)

val from_vm : t -> Vnic.id -> Packet.t -> unit
(** A local VM emitted a TX packet: {!from_vnic_batch} on a one-slot
    batch. *)

val from_vnic_batch : t -> Vnic.id -> Pbatch.t -> unit
(** A local vNIC emitted a TX burst.  Takes ownership of the batch.
    Observably equivalent to [from_vm] per packet in order — same
    deliveries, drops, counters and session-table evolution — while
    charging the SmartNIC once for the whole burst. *)

val from_net : t -> Packet.t -> unit
(** The underlay delivered a packet to this server: {!from_net_batch}
    on a one-slot batch. *)

val from_net_batch : t -> Pbatch.t -> unit
(** The underlay delivered a burst.  Takes ownership; carves the burst
    into maximal in-order vectored runs (NSH traffic for the batch net
    hook, tenant traffic for one un-intercepted local vNIC) and sends
    each packet between them, and each NSH packet the batch hook
    declines, to local RX on its own: the vNIC's intercept and local
    path, the single net hook for non-NSH traffic with no local vNIC,
    or a [No_vnic] drop. *)

(** {1 Nezha integration hooks} *)

type intercept = {
  on_tx : Packet.t -> [ `Handled | `Continue ];
  on_rx : Packet.t -> [ `Handled | `Continue ];
  on_tx_batch : (Pbatch.t -> unit) option;
      (** vectored TX interception; [None] falls back to [on_tx] per
          packet.  The handler owns (and recycles) the batch. *)
}

val set_intercept : t -> Vnic.id -> intercept option -> unit

val set_mapping_learner :
  t -> (Vnic.Addr.t -> (Ipv4.t array * float) option) option -> unit
(** On-demand vNIC-server learning (§4.2.1): when a slow-path lookup has
    no mapping for the peer, the packet detours via the gateway and the
    vSwitch asks the learner for the authoritative entry; the returned
    targets are installed into the querying vNIC's tables after the
    returned delay (the learning interval).  The fabric wires this to
    the gateway. *)

val set_net_hook :
  t -> (Packet.t -> outer:Packet.vxlan option -> [ `Handled | `Continue ]) option -> unit
(** The hook for non-NSH underlay traffic with no local vNIC (a Sirius
    card's pool datapath, an FE's first-hop RX); it never sees NSH
    traffic.  It receives the decapsulated packet together with its
    original outer header — an FE must preserve the outer source for
    stateful decapsulation (§5.2). *)

val set_net_hook_batch : t -> (Pbatch.t -> Pbatch.t option) option -> unit
(** The hook for NSH-bearing underlay traffic, which it alone is
    offered: receives a run of still-encapsulated NSH packets (ownership
    included) and returns the still-encapsulated leftover it declined —
    or [None] when it consumed everything.  The leftover transfers back
    to the caller, which sends each packet to local RX. *)

val vnic_slow_execs : t -> Vnic.id -> int
(** Slow-path executions attributed to this vNIC — the controller's
    per-vNIC CPU consumption signal (§4.2.1). *)

val vnic_memory_bytes : t -> Vnic.id -> int
(** Rule tables + residual + session memory attributed to this vNIC. *)

val vnic_classifier_backend : t -> Vnic.id -> Nezha_tables.Classifier.backend option
(** The classifier backend currently serving this vNIC's ACL — under the
    [Auto] policy a decision made from the ruleset's shape, also exported
    as the [vnic/<id>/classifier_backend] telemetry gauge. *)

(** {1 Primitives shared with the Nezha datapath} *)

val charge : t -> cycles:int -> (Sim.t -> unit) -> unit
(** Run a continuation after the CPU spends [cycles]; drops (and counts)
    on queue overflow. *)

val charge_batch : t -> cycles:int -> npkts:int -> (Sim.t -> unit) -> bool
(** One submission for a whole burst — the event-dispatch amortization
    that motivates vectoring.  On rejection every packet of the batch is
    counted dropped and [false] returns (the caller still owns the
    batch). *)

val emit_batch : t -> Pbatch.t -> unit
(** Send an encapsulated net burst through the installed sink, counting
    [forwarded] per packet.  Takes ownership (the sink recycles the
    batch). *)

val slow_path : t -> Ruleset.t -> vpc:Vpc.t -> flow_tx:Five_tuple.t -> Ruleset.lookup_result option
(** Rule-table pipeline execution (cycle cost is in the result; the
    caller charges it). Increments the slow-path counter. *)

val emit : t -> output -> unit
(** Send through the installed transmit function. *)

val deliver_local : t -> Vnic.id -> Packet.t -> unit
(** Count and hand a packet to the local VM. *)

val count_drop : t -> Nf.drop_reason -> unit
val count_notify : t -> unit

val utilization_report : t -> cpu:float ref -> mem:float ref -> unit
(** Sample CPU (consuming, since last call) and memory utilization — the
    periodic report each vSwitch sends the controller (§4.2.1). *)

(** {1 Tracing} *)

val set_tracer : t -> Nezha_telemetry.Trace.t option -> unit
(** Attach the flight recorder.  TX packets entering {!from_vm} get a
    trace id allocated here (subject to the recorder's sampling); the
    local fast/slow paths emit stage spans.  With no tracer — or a
    disabled one — every instrumentation site is a single match. *)

val tracer : t -> Nezha_telemetry.Trace.t option

val trace_span :
  t ->
  Nezha_net.Packet.t ->
  name:string ->
  component:string ->
  ?kind:Nezha_telemetry.Trace.kind ->
  ?site:Nezha_telemetry.Trace.site ->
  ?args:(string * string) list ->
  t0:float ->
  unit ->
  unit
(** Record a span [\[t0, now)] against the packet's trace, if any — the
    shared guard the BE/FE datapaths emit through. *)

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Publish every datapath counter (including per-reason drops) and
    vNIC/session gauges under [vswitch/<name>/...], and the SmartNIC's
    instruments under [smartnic/<name>/...].  Each vNIC additionally
    gets [vswitch/<name>/vnic/<id>/classifier_backend] (the backend
    code serving its ACL: 0 = linear, 1 = tss, 2 = learned) and
    [.../classifier_memory_bytes]; vNICs added after registration are
    instrumented on arrival and removed vNICs drop their gauges. *)
