(** One function per table and figure of the paper's evaluation.

    Testbed experiments (Figs. 9–12, 14, Tables 3–4, A1 and the
    ablations) run the discrete-event simulator; fleet experiments
    (Figs. 2–4, 13, 15, Table 1, App. B.2) use the quantile-matched
    region model; Table 5 and Fig. A1 are cost models.  Every function
    takes a seed so benches are reproducible. *)

open Nezha_engine
open Nezha_workloads

(** {1 Fig. 9 — performance gain vs #FEs} *)

type fig9_row = {
  fes : int;
  cps_gain : float;
  flows_gain : float;
  vnics_gain : float;
}

val fig9 : ?seed:int -> ?fes_list:int list -> unit -> fig9_row list
(** Defaults sweep 1, 2, 3, 4, 6, 8 FEs (auto-scaling disabled, §6.2.1). *)

val fig9_latency : ?seed:int -> ?fes:int -> unit -> Stats.Histogram.t * Stats.Histogram.t
(** Connection-setup latency distributions (without, with Nezha) under
    the saturating closed-loop load of the Fig. 9 measurement — the
    source of the P50/P99/P9999 summaries in the machine-readable bench
    output. *)

val fig9_vnics : ?fes_list:int list -> unit -> (int * float) list
(** The #vNICs series on the paper's wider 1–128 FE axis: gain is
    proportional to the pool size once it exceeds the 4-way replication
    factor. *)

(** {1 Fig. 10 — CPS vs #vCPUs in the VM} *)

type fig10_row = { vcpus : int; cps_without : float; cps_with : float }

val fig10 : ?seed:int -> ?vcpus_list:int list -> unit -> fig10_row list

(** {1 Fig. 11 — CPU utilization during offloading/scaling} *)

type fig11_point = { t : float; cps : float; be_cpu : float; fe_cpu : float; n_fes : int }

val fig11 : ?seed:int -> unit -> fig11_point list
(** Ramping CPS triggers offload at 70% BE utilization, then FE
    scale-out at 40% average FE utilization. *)

(** {1 Fig. 12 — end-to-end latency vs load} *)

type fig12_row = {
  load : float;  (** offered load as a fraction of local capacity *)
  lat_without_us : float;  (** P50 one-way latency, µs *)
  lat_with_us : float;
  lost_without : float;  (** fraction of probes lost *)
  lost_with : float;
}

val fig12 : ?seed:int -> ?loads:float list -> unit -> fig12_row list

(** {1 Fig. 12, attributed — latency split by critical path} *)

type latency_split = {
  traces : int;  (** completed, conserved traces behind the split *)
  p50_us : float;  (** end-to-end latency of the trace at the P50 rank *)
  p50_local_us : float;  (** its local component (BE work, non-NSH wire) *)
  p50_remote_us : float;  (** its remote-hop component (FE work, NSH legs) *)
  p99_us : float;
  p99_local_us : float;
  p99_remote_us : float;
}
(** A rank-based split: the breakdown reported for P50 (P99) is the
    local/remote attribution of {e the} trace sitting at that rank of
    the end-to-end distribution, so by the conservation invariant the
    two components sum to the reported percentile exactly. *)

type fig12_attr_row = {
  attr_load : float;
  without_nezha : latency_split;  (** remote ≈ 0: no FE on the path *)
  with_nezha : latency_split;
}

val fig12_attribute : ?seed:int -> ?loads:float list -> unit -> fig12_attr_row list
(** The Fig. 12 probe with the testbed's flight recorder enabled for the
    measurement window (1-in-8 sampling).  Defaults sweep 0.3, 0.7, 1.0
    of local capacity. *)

(** {1 Table 3 — middlebox gains} *)

type table3_row = {
  kind : Middlebox.kind;
  cps_gain : float;
  vnics_gain : float;
  flows_gain : float;
}

val table3 : ?seed:int -> unit -> table3_row list

(** {1 Table 4 — offload activation completion time} *)

val table4 : ?seed:int -> ?events:int -> unit -> Stats.Histogram.t
(** Milliseconds; repeated offload/fallback cycles through the full
    dual-running workflow. *)

(** {1 Fig. 14 — packet loss during FE crash and failover} *)

val fig14 : ?seed:int -> ?underlay_loss:float -> unit -> (float * float) list
(** (time, loss-rate) samples; one of four FEs crashes at t = 4 s.
    [underlay_loss] additionally impairs every underlay hop with that
    drop probability for the whole run (the paper's crash experiment on
    a lossy fabric): the loss floor sits near the configured rate and
    the crash surge still recovers on top of it. *)

(** {1 Chaos harness — scripted underlay faults} *)

type chaos_sample = {
  at : float;  (** seconds since load start *)
  loss : float;  (** fabric+vSwitch drops over the sample window *)
  outstanding : int;  (** BE offloads awaiting their FE hop ack *)
}

type chaos_result = {
  samples : chaos_sample list;
  offered : int;
  established : int;
  completed : int;
  tracked : int;  (** TX sends entered into the BE's offload tracker *)
  acked : int;
  timeouts : int;
  retx : int;
  resteered : int;
  local_fallbacks : int;
  local_bypass : int;
  dropped : int;  (** given up with no local ruleset (blackholed) *)
  untracked : int;
  outstanding_end : int;
  injected_drops : int;  (** probabilistic losses from the fault plane *)
  partition_drops : int;
  mass_suspected : int;  (** §C.2 suppression rounds at the monitor *)
  fe_failures_declared : int;
  end_loss : float;  (** mean loss over the last 1.5 s (healed network) *)
  recovered : bool;  (** [end_loss <= 1%] *)
  conservation_ok : bool;
      (** [tracked = acked + local_fallbacks + dropped + outstanding_end] *)
}

val chaos :
  ?seed:int ->
  ?loss:float ->
  ?partition:bool ->
  ?duration:float ->
  ?rate:float ->
  unit ->
  chaos_result
(** One scripted run against an offloaded vNIC under open-loop TCP_CRR
    load ([rate]/s per client).  Schedule, relative to load start:
    [loss/2] everywhere at 1 s, full [loss] at 2 s, FE SmartNIC crash at
    4 s, a hard partition of a surviving FE's server at 6 s (unless
    [partition] is false), heal at 9 s, perfect network again at 11 s.
    Defaults: seed 42, 0.5% loss, partition on, 13 s, 400 CPS/client.
    Same seed ⇒ byte-identical result, samples included. *)

(** {1 Table A1 — rule-lookup throughput (Mpps)} *)

val tableA1 : unit -> (int * (int * float) list) list
(** [(pkt_size, [(n_acl_rules, mpps); ...]); ...] from the full-scale
    cost model. *)

(** {1 App. B.2 — scale-out frequency over 30 days} *)

type appB2_result = {
  offload_events : int;
  fes_provisioned : int;
  scale_out_events : int;
  scale_out_ratio : float;
}

val appB2 : ?seed:int -> ?events:int -> unit -> appB2_result

(** {1 Ablations} *)

type sirius_vs_nezha = {
  nezha_cps : float;
  sirius_cps : float;
  sirius_pingpongs : int;
  nezha_notify : int;
}

val ablation_sirius : ?seed:int -> unit -> sirius_vs_nezha
(** Same pool hardware (4 idle SmartNICs): Nezha's stateless FEs versus
    Sirius's primary/backup pairs with in-line replication. *)

type lb_ablation = {
  mode : string;
  fe_rule_lookups : int;
  fe_cached_flows : int;
  cps : float;
}

val ablation_flow_vs_packet_lb : ?seed:int -> unit -> lb_ablation list
(** Flow-level vs packet-level balancing of TX traffic (§3.2.3 point 3):
    packet spraying duplicates rule lookups and cached flows. *)

type state_size_ablation = {
  slot_bytes : int;
  flows_supported : int;
}

val ablation_state_size : ?seed:int -> unit -> state_size_ablation list
(** §7.1: fixed 64 B state slots vs an 8 B variable-size allocation. *)

val ablation_notify_rate : ?seed:int -> unit -> float
(** Notify packets per data packet under a stats-enabled workload —
    §3.2.2 argues this stays far below 1. *)

val measure_flows : ?seed:int -> fes:int -> unit -> int
(** Sustained #concurrent flows on the heavy vNIC with a 1.5 MB (scaled)
    rule table; [fes = 0] is the local baseline (Fig. 9's right series). *)

type failover_retx = {
  failed_without_retx : int;  (** connections abandoned during the crash window *)
  failed_with_retx : int;
  retransmissions : int;
  completed_with_retx : int;
}

val ablation_failover_retransmit : ?seed:int -> unit -> failover_retx
(** §6.3.4's "customers are not perceptibly impacted": with TCP
    retransmission, connections caught by an FE crash retry past the
    ~2 s failover window instead of failing. *)

type locality_row = { placement : string; p50_latency_us : float }

val ablation_fe_locality : ?seed:int -> unit -> locality_row list
(** App. B.1: FE selection prefers the BE's ToR.  Compares connection
    latency with same-rack FEs against FEs forced into a distant rack. *)

(** {1 Fig. 13 at region scale — measured before/after}

    The closed-form {!Nezha_workloads.Region.daily_overloads} race model
    replayed as an actual event simulation: thousands of vSwitches on a
    {!Nezha_engine.Sim.Sharded} cluster
    ({!Nezha_workloads.Region_sim}), overloads counted only when a
    demand spike outruns the offload pipeline in simulated time. *)

type region_overloads = {
  region_before : Nezha_workloads.Region_sim.result;
  region_after : Nezha_workloads.Region_sim.result;
  resolved_pct : float;  (** share of "before" overloads that Nezha
                             resolved, in percent *)
}

val region_overloads :
  ?cfg:Nezha_workloads.Region_sim.config -> unit -> region_overloads
(** Two same-seed runs of [cfg] (default
    {!Nezha_workloads.Region_sim.default_config}): controller off, then
    on. *)

(** {1 Region-scale MTTR chaos (DESIGN.md §13)}

    A crash storm over the region: Poisson server crashes with frozen
    schedules, plus one primary-controller crash mid-storm with a
    standby takeover.  Reports P50/P99 crash→intent-restored (MTTR),
    overload and blackhole counts during convergence, and asserts
    same-seed byte-identical determinism under the sharded engine. *)

type region_mttr = {
  storm : Nezha_workloads.Region_sim.result;
  storm_rerun_digest : int;
  storm_deterministic : bool;
      (** a second same-seed run produced an identical digest *)
}

val default_storm_config : Nezha_workloads.Region_sim.config
(** 240 servers on 6 shards, crash_rate 0.6/server/day, one controller
    crash at t=8 s with a 0.5 s failover. *)

val region_mttr : ?cfg:Nezha_workloads.Region_sim.config -> unit -> region_mttr

(** {1 SLO-tracking ramp (DESIGN.md §15)}

    The {!Nezha_workloads.Region_sim.run_slo} diurnal ×10 offered-load
    ramp driven by the real {!Nezha_core.Slo} decision core: run clean,
    run with the rack-partition chaos variant (window in the hold phase
    so suppression is hit at peak pool), and rerun clean with the same
    seed for the determinism gate. *)

type slo_ramp = {
  slo_clean : Nezha_workloads.Region_sim.slo_result;
  slo_chaos : Nezha_workloads.Region_sim.slo_result;
  slo_rerun_digest : int;
  slo_deterministic : bool;  (** clean rerun digest identical *)
}

val slo_smoke_config : Nezha_workloads.Region_sim.slo_config
(** The default SLO config at reduced scale (150 s day, shorter
    cooldown/warmup/suppress-hold) — fast enough for tier-1 and the
    [bench/check.sh --smoke] target while exercising every gate. *)

val slo_ramp :
  ?cfg:Nezha_workloads.Region_sim.slo_config ->
  ?partition:float * float ->
  unit ->
  slo_ramp
(** Default [partition]: starts at 42.5% of the day and lasts 10% of
    it. *)

(** {1 Crash/restart endurance}

    [cycles] FE-host crash+reboot cycles against a live offload on the
    small testbed, traffic interleaved; at the end the books must
    balance: the controller conservation invariant, BE tracked-send
    conservation, and zero leaked {!Nezha_net.Pbatch} arena batches. *)

type crash_cycles = {
  cycles : int;
  cyc_crashes : int;
  cyc_restarts : int;
  cyc_reconciles : int;
  cyc_repairs : int;
  conservation_ok : bool;
  be_conservation_ok : bool;
  batches_leaked : int;
  final_cps : float;
}

val crash_cycles : ?cycles:int -> ?seed:int -> unit -> crash_cycles

(** {1 JSON encoders}

    One [json_of_*] per result record that the bench registry or a
    [nezha_sim] subcommand emits (via {!Nezha_telemetry.Json}), so both
    share a single schema instead of hand-rolling objects.  Nested
    records (latency splits, chaos samples, region and SLO runs) are
    encoded inside their parents. *)

val json_of_fig9_row : fig9_row -> Nezha_telemetry.Json.t
val json_of_fig10_row : fig10_row -> Nezha_telemetry.Json.t
val json_of_fig11_point : fig11_point -> Nezha_telemetry.Json.t
val json_of_fig12_row : fig12_row -> Nezha_telemetry.Json.t
val json_of_fig12_attr_row : fig12_attr_row -> Nezha_telemetry.Json.t
val json_of_table3_row : table3_row -> Nezha_telemetry.Json.t

val json_of_chaos_result : chaos_result -> Nezha_telemetry.Json.t
(** The result fields of the [nezha-chaos/1] schema ([samples] included);
    the [chaos] subcommand prepends the run's input parameters. *)

val json_of_appB2_result : appB2_result -> Nezha_telemetry.Json.t
val json_of_sirius_vs_nezha : sirius_vs_nezha -> Nezha_telemetry.Json.t
(** Adds [nezha_over_sirius], the CPS ratio. *)

val json_of_lb_ablation : lb_ablation -> Nezha_telemetry.Json.t
val json_of_state_size_ablation : state_size_ablation -> Nezha_telemetry.Json.t
val json_of_failover_retx : failover_retx -> Nezha_telemetry.Json.t
val json_of_locality_row : locality_row -> Nezha_telemetry.Json.t

val json_of_region_overloads : region_overloads -> Nezha_telemetry.Json.t
val json_of_region_mttr : region_mttr -> Nezha_telemetry.Json.t
val json_of_crash_cycles : crash_cycles -> Nezha_telemetry.Json.t

val json_of_slo_ramp : slo_ramp -> Nezha_telemetry.Json.t
