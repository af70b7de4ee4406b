(** The small-scale testbed of §6.1, as a reusable scenario builder.

    One high-demand vNIC (optionally configured as one of the §6.3
    middleboxes) on server 0; client vNICs in the last rack so the rest
    of the fleet stays idle and eligible as FEs; a controller; the
    gateway pre-loaded with every vNIC's location.

    CPU runs at 1/100 and memory at 1/1000 of production scale (see
    {!Nezha_vswitch.Params.scaled}), and the VM kernel model is scaled
    identically, so saturation points sit at a few thousand CPS — cheap
    for the event simulator — while every ratio the paper reports is
    preserved. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_workloads

type t = {
  sim : Sim.t;
  rng : Rng.t;
  fabric : Fabric.t;
  faults : Faults.t;
      (** the underlay fault-injection plane, attached to [fabric] and
          seeded from [seed] (independent of the workload rng) *)
  ctl : Controller.t;
  vpc : Vpc.t;
  heavy_server : Topology.server_id;
  server : Tcp_crr.endpoint;  (** the high-demand vNIC's endpoint *)
  clients : Tcp_crr.endpoint array;
  telemetry : Nezha_telemetry.Telemetry.t;
      (** every vSwitch, the controller and the monitor are registered;
          FEs and BEs self-register as the controller creates them *)
  trace : Nezha_telemetry.Trace.t;
      (** the shared flight recorder, installed on every vSwitch, the
          fabric and every VM; created disabled — flip it on with
          {!Nezha_telemetry.Trace.set_enabled} around the window of
          interest *)
}

val create :
  ?seed:int ->
  ?racks:int ->
  ?servers_per_rack:int ->
  ?params:Params.t ->
  ?ruleset:Ruleset.t ->
  ?middlebox:Middlebox.kind ->
  ?server_vcpus:int ->
  ?clients:int ->
  ?controller_config:Controller.config ->
  ?reserve_servers:Topology.server_id list ->
  unit ->
  t
(** Defaults: seed 1, 5 racks × 8 servers, {!Params.scaled}, a plain
    100-rule ruleset, a 64-vCPU server VM whose kernel is scaled like
    {!Params.scaled} (it accepts ≈3× the connections a local vSwitch can
    set up, which makes the VM the post-Nezha bottleneck, §6.2.2), 4
    clients (on CPU-generous vSwitches so they never bottleneck), manual
    controller (no auto policies). *)

val heavy_vnic_id : Vnic.id
val heavy_ip : Ipv4.t

val offload : t -> ?num_fes:int -> unit -> Controller.offload
(** Trigger offloading of the heavy vNIC and run the simulation until
    the final stage completes.  @raise Failure if it cannot. *)

val run_crr :
  t -> rate:float -> duration:float -> ?client:int -> ?settle:float -> unit -> Tcp_crr.t
(** Run a TCP_CRR load from one client against the heavy vNIC and drain
    the simulation ([settle] extra seconds, default 2). *)

val measure_cps : t -> ?concurrency:int -> ?duration:float -> unit -> float
(** Saturation CPS of the heavy vNIC: closed-loop TCP_CRR (spread over
    all clients) keeps [concurrency] connections outstanding and reports
    the completion rate. *)

val measure_latency :
  t -> ?concurrency:int -> ?duration:float -> unit -> Stats.Histogram.t
(** Same closed-loop load, returning the merged SYN-to-response latency
    histogram across all clients (P50…P9999 material). *)

val local_cps_capacity_estimate : t -> float
(** Closed-form estimate of the heavy vSwitch's local CPS capacity from
    the cost model (used to pick probe rates). *)
