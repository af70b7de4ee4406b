(** The vNIC backend (BE): the node that keeps the session states, in one
    copy, locally (§3.2.1).

    Installed as a per-vNIC intercept on the offloaded vNIC's vSwitch.

    TX workflow: look up / initialize the state, encode it into the NSH
    header, and steer the packet to an FE chosen by 5-tuple hash.  The BE
    never runs the rule-table pipeline for offloaded vNICs — that is the
    entire CPS win.

    RX workflow: packets arrive from an FE with pre-actions piggybacked;
    the BE combines them with the local state ([process_pkt]) and delivers
    to the VM.  Notify packets update rule-table-involved state without
    delivery (§3.2.2).

    During the dual-running stage, packets from senders that have not yet
    learned the new vNIC-server entry arrive without NSH metadata and are
    handed back to the still-present local tables; in the final stage they
    are bounced to an FE instead (§4.2.1). *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch

type stage = Dual | Final

type t

val install :
  vs:Vswitch.t ->
  vnic:Vnic.t ->
  vni:int ->
  fes:Ipv4.t array ->
  ?fallback_ruleset:Ruleset.t ->
  unit ->
  t
(** Sets the vNIC's intercept.  [fallback_ruleset] is the rule tables to
    run locally when the FE hop is given up on (the controller passes the
    set it saved aside at offload time; during the dual stage the
    vSwitch's own copy is used instead).  @raise Invalid_argument on an
    empty FE set. *)

val uninstall : t -> unit
(** Remove the intercept (fallback completed).  Outstanding tracked
    offloads are resolved through the local slow path. *)

val crash : t -> unit
(** The hosting dataplane process died: the outstanding-offload tracker,
    retransmission timers, suspect table and pins vanish.  Unlike
    {!uninstall} nothing is resolved locally — the tracked in-flight
    packets were lost with the NIC and move to [offload_dropped] (the
    conservation invariant holds across the crash).  The instance is
    permanently closed; reconciliation installs a fresh one. *)

val closed : t -> bool

val handle_tx_batch : t -> Pbatch.t -> unit
(** The TX workflow (wired as the intercept's [on_tx_batch]; its
    [on_tx] is this on a one-slot batch): one SmartNIC submission for
    the burst, per-packet state stepping in order, FE-bound packets
    leaving as one batch.  Takes ownership. *)

module Ingress_impl : sig
  val ingest : t -> ctx:Packet.direction -> Packet.t -> [ `Handled | `Continue ]
end
(** The BE intercept as one entry point; [ctx] is the packet direction.
    TX runs {!handle_tx_batch} on a one-slot batch; RX classifies acks,
    notifies, FE-finalized and bare traffic, and [`Continue]s a bare
    dual-stage packet to the traditional local RX path. *)

val set_fallback_ruleset : t -> Ruleset.t option -> unit

val vnic : t -> Vnic.t

val vni : t -> int
(** The offload's overlay network id — part of what a restarted BE
    re-advertises to the controller. *)

val fallback_ruleset : t -> Nezha_vswitch.Ruleset.t option

val stage : t -> stage
val set_stage : t -> stage -> unit

val fes : t -> Ipv4.t array
val set_fes : t -> Ipv4.t array -> unit
(** Update the FE location config (scale-out/-in, failover).
    @raise Invalid_argument on an empty set. *)

val remove_fe : t -> Ipv4.t -> unit
(** Drop one FE from the set; keeps at least one (the caller is
    responsible for replacing failed FEs per the ≥4 rule). *)

val fe_for : t -> Five_tuple.t -> Ipv4.t
(** The hash-selected FE for a flow (under packet-level balancing the
    result varies per call). *)

val pin_flow : t -> Five_tuple.t -> Ipv4.t -> unit
(** §7.5: override the hash choice for one session (both directions
    normalize to the canonical tuple) — the elephant-flow escape hatch. *)

val unpin_flow : t -> Five_tuple.t -> unit
val pinned_count : t -> int

type lb_mode = Flow_level | Packet_level

val set_lb_mode : t -> lb_mode -> unit
(** Default [Flow_level] (canonical 5-tuple hash).  [Packet_level]
    sprays packets round-robin — the §3.2.3 ablation showing why Nezha
    rejects it: duplicated rule lookups and cached flows on every FE. *)

(** {1 Dataplane counters} *)

type counters = {
  tx_via_fe : Stats.Counter.t;
  rx_from_fe : Stats.Counter.t;
  notify_received : Stats.Counter.t;
  bounced : Stats.Counter.t;
      (** final-stage packets without metadata re-steered to an FE *)
  offload_tracked : Stats.Counter.t;  (** TX sends entered into the tracker *)
  offload_acked : Stats.Counter.t;  (** hop-level acks received from FEs *)
  offload_timeouts : Stats.Counter.t;  (** retransmission-timer expiries *)
  offload_retx : Stats.Counter.t;  (** retransmissions sent *)
  offload_resteered : Stats.Counter.t;
      (** retransmissions that switched to a different FE *)
  local_fallback : Stats.Counter.t;
      (** tracked sends resolved through the local slow path after the
          hop was given up on *)
  local_bypass : Stats.Counter.t;
      (** TX packets that skipped the FE hop because every FE was
          suspect *)
  offload_dropped : Stats.Counter.t;
      (** given-up sends with no local ruleset either — counted as
          [Offload_timeout] drops *)
  offload_untracked : Stats.Counter.t;
      (** sends made fire-and-forget because the tracker was full *)
}

val counters : t -> counters

val outstanding : t -> int
(** Tracked offloads currently awaiting their FE ack.  Conservation
    invariant: [tracked = acked + local_fallback + offload_dropped +
    outstanding]. *)

val hop_latency_hist : t -> Nezha_engine.Stats.Histogram.t
(** Cumulative remote-hop latency (send → hop ack), seconds.  A
    retransmitted offload records the latency of the attempt that was
    finally acked. *)

val drain_hop_latencies : t -> float list
(** Remote-hop latency samples since the previous drain (bounded
    window; newest first).  The controller's SLO tick drains every BE
    it manages to build the per-window P99. *)

val register_telemetry : t -> Nezha_telemetry.Telemetry.t -> unit
(** Publish the counters (plus a pinned-flows gauge) under
    [be/<vswitch-name>/<vnic-id>/...]. *)
