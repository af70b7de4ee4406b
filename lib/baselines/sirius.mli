(** A Sirius-style baseline (Bansal et al., NSDI'23; §2.3.3, §8).

    Sirius disaggregates the *whole* vSwitch processing of high-demand
    vNICs — rule tables, cached flows and session state — onto a pool of
    dedicated high-performance DPUs.  Because state lives in the pool,
    fault tolerance needs primary/backup replication, implemented in-line
    by ping-ponging state-changing packets between the two cards of a
    pair: a new connection consumes processing on both cards, so the
    achievable CPS is half the pool's aggregate capacity (§2.3.3).

    Load balancing hashes flows into 64 buckets assigned
    to card pairs; moving load reassigns buckets, and sessions of
    long-lived flows must be state-transferred to the new owner.

    The model reuses the same {!Nezha_vswitch.Smartnic} substrate with a
    higher cycle budget (a Pensando-class card), so the comparison with
    Nezha isolates the *architectural* difference: remote state +
    replication versus local single-copy state. *)

open Nezha_vswitch
open Nezha_fabric

type t

val create :
  fabric:Fabric.t ->
  cards:Topology.server_id list ->
  ?dpu_speedup:float ->
  unit ->
  t
(** Build a DPU pool on the given (otherwise empty) servers.  Cards are
    created as vSwitches with [dpu_speedup] × the CPU of a server
    SmartNIC (default 4) and paired consecutively: card 2k is primary for
    its buckets, card 2k+1 its backup.
    @raise Invalid_argument if fewer than 2 cards or an odd count. *)

val card_vswitches : t -> Vswitch.t list

val offload_vnic :
  t -> server:Topology.server_id -> vnic:Vnic.id -> (unit, string) result
(** Take over a vNIC: replicate its rule tables onto every card, install
    a pass-through on the host (TX packets steer to the owning card by
    bucket hash) and point the gateway/senders at the pool. *)

val rebalance : t -> unit
(** Reassign buckets round-robin to spread load; sessions whose bucket
    moved are state-transferred to the new owner (counted). *)

(** {1 Counters for the comparison benches} *)

val connections_processed : t -> int
val replication_pingpongs : t -> int
(** State-changing packets that consumed the backup card too. *)

val state_transfers : t -> int
val pool_cycles : t -> int
(** Total cycles charged across the pool (both cards of each pair). *)
