(** netperf TCP_CRR-style workload: a storm of short connections (§6.2.1).

    Each connection is the classic connect/request/response/close
    exchange: SYN → SYN-ACK → ACK+request (64 B) → response (512 B) →
    FIN → FIN-ACK (three packets in each direction).  Connections are offered open-loop
    at a target rate with exponential inter-arrivals; the achieved CPS is
    the completion rate, and per-connection latency is the SYN-to-response
    time.  This is the traffic pattern of the paper's high-CPS tenants
    (DNS servers, L7 load balancers). *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric

type endpoint = {
  vs : Vswitch.t;
  vnic : Vnic.id;
  vm : Vm.t;
  ip : Ipv4.t;
}

type t

val start :
  sim:Sim.t ->
  rng:Rng.t ->
  vpc:Vpc.t ->
  client:endpoint ->
  server:endpoint ->
  rate:float ->
  duration:float ->
  ?dport:int ->
  ?sport_base:int ->
  unit ->
  t
(** Launch the generator: connections at [rate]/s for [duration] seconds.
    [sport_base] (default 1024) starts the source-port allocation —
    concurrent or back-to-back generators sharing a client must use
    disjoint ranges or they would reuse live sessions.
    Installs the app handlers on both VMs (a VM can host only one CRR
    endpoint at a time). *)

val start_closed :
  sim:Sim.t ->
  rng:Rng.t ->
  vpc:Vpc.t ->
  client:endpoint ->
  server:endpoint ->
  concurrency:int ->
  duration:float ->
  ?dport:int ->
  ?conn_timeout:float ->
  ?retransmit:bool ->
  unit ->
  t
(** Closed-loop variant (what netperf TCP_CRR actually does): keep
    [concurrency] connections outstanding; each completion — or timeout
    ([conn_timeout], default 1 s) — immediately starts the next.
    Saturates the bottleneck without the open-loop queue collapse.

    With [retransmit] (default false), a timed-out connection retries its
    last unanswered packet with exponential backoff (250 ms → 8 s, 6
    tries) instead of being abandoned — TCP's behaviour, and the §6.3.4
    argument for why a ~2 s failover surge is imperceptible: retries
    outlive it. *)

val retransmissions : t -> int
val failed : t -> int
(** Closed-loop connections abandoned after exhausting retries. *)

val offered : t -> int
(** Connections initiated. *)

val established : t -> int
(** Connections whose handshake completed at the client. *)

val completed : t -> int
(** Connections that received the full response. *)

val achieved_cps : t -> float
(** [completed / duration]. *)

val latencies : t -> Stats.Histogram.t
(** SYN-to-response latency (seconds). *)

val first_packet_latencies : t -> Stats.Histogram.t
(** SYN-to-SYN-ACK (includes the slow path on the first packet). *)
