(** Region-scale event-simulated overload study (Fig. 13 headline).

    Models thousands of servers on a {!Nezha_engine.Sim.Sharded}
    cluster, rack-aligned onto shards.  A server is its demand model
    alone: the region builds no vSwitch, SmartNIC or fabric.
    Demand comes from {!Region.sample_fleet} profiles; the top CPS
    fraction are hotspots that receive Poisson-many demand spikes over
    one compressed "day".  A fleet controller on shard 0 receives
    utilization reports, steps {!Nezha_core.Policy} — the candidate
    selection and offload intent record {!Nezha_core.Controller} uses —
    and pushes offload activations and restores back, each message
    carrying its payload; an overload is {e counted only
    when it happens in the simulation} — i.e. the spike's ramp crosses
    the overload level before report → detect → place → state-push →
    activate completes.  This replaces the closed-form
    {!Region.daily_overloads} race model with a measured one.

    Demand ticks run one {!Nezha_engine.Sim.timeout} loop per shard and
    stagger phase, ticking that group's servers in id order; each
    flow-churn timer is a loop of its own, and utilization reports one
    {!Nezha_engine.Sim.every} per shard.  A loop's closure returns its
    next delay, and one wheel node serves every firing.  The host cost
    of a run is measured by the [region_day] workload of [perfbench/],
    not here.

    Determinism: for a fixed seed the result {!result.digest} is
    identical for any shard count (all cross-shard interaction is
    control-plane traffic delayed by the 10 ms control-plane latency,
    which is the cluster lookahead; everything else is shard-local — see
    DESIGN.md §10). *)

type config = {
  racks : int;
  servers_per_rack : int;
  shards : int;
  seed : int;
  duration : float;  (** one compressed "day", sim seconds *)
  tick : float;  (** demand-evaluation period per server *)
  flow_timers : int;  (** sampled live-flow churn timers per server *)
  nezha : bool;  (** controller acts (false = "before" run) *)
  report_interval : float;
  scan_interval : float;
  hotspot_quantile : float;  (** CPS quantile above which spikes occur *)
  spikes_per_day : float;  (** Poisson mean per hotspot (Fig. 13) *)
  ramp_median : float;  (** compressed spike ramp median, seconds *)
  hold : float;  (** time a spike holds its peak *)
  crash_rate : float;
      (** crash-storm chaos (DESIGN.md §13): Poisson mean server crashes
          per compressed day, schedule frozen at setup (0 = off) *)
  reboot_delay : float;  (** crash -> process back up *)
  resync_delay : float;  (** controller re-push latency on re-advertisement *)
  ctl_crash_at : float option;  (** primary-controller crash instant *)
  ctl_failover : float;  (** lease expiry -> standby takeover delay *)
}

val default_config : config
(** 250 racks x 8 = 2,000 servers, 8 shards, 30 s
    compressed day.  The offload policy is not configured here: the
    fleet controller steps {!Nezha_core.Policy} and uses its threshold,
    FE count ([initial_fes]), FE ceilings and overload level, and
    {!Nezha_core.Controller}'s push bandwidth.
    Fixed model constants: 10 ms control-plane latency (the cluster
    lookahead), 1 s mean flow lifetime, a BE keeps 30% of its spike
    demand once offloaded, spike-ramp lognormal sigma 0.8, 2 ms RPC
    round trip. *)

type result = {
  servers : int;
  vnics_modeled : int;
  flows_modeled : int;
  hotspots : int;
  events : int;  (** simulation events executed, cluster-wide; varies with the shard count *)
  messages : int;  (** cross-shard mailbox deliveries *)
  ticks : int;
  flow_expiries : int;
  overloads : int;  (** overload episodes (Fig. 13 occurrences) *)
  overload_ticks : int;
  detections : int;
  activations : int;
  packets_modeled : float;  (** demand-rate x time packet proxy *)
  pool_reused : int;
  pool_fresh : int;
  crashes : int;  (** server crash events executed (storm) *)
  restarts : int;  (** reboot completions *)
  mttr_p50 : float;
      (** crash instant -> controller intent fully restored on the
          rebooted node, seconds *)
  mttr_p99 : float;
  blackholed_ticks : int;
      (** demand ticks evaluated while the server was down *)
  late_blackholed : int;
      (** blackholed ticks after every scheduled recovery should have
          converged — a correct run reports 0 *)
  ctl_takeovers : int;  (** standby takeovers after a primary crash *)
  digest : int;  (** order-insensitive run fingerprint; equal across
                     shard counts for a fixed seed and config *)
}

val run : config -> result

type before_after = { before : result; after : result }

val before_after : config -> before_after
(** The same seeded region, controller off then on.  Both runs schedule
    the identical report/scan cadence (the "before" scan is a no-op), so
    event counts stay comparable. *)

(** {1 SLO-tracking run (DESIGN.md §15)}

    A diurnal offered-load ramp (×[ramp_ratio] trough→peak) served by an
    elastic FE pool sized by the {e real} {!Nezha_core.Slo} decision
    core over a modeled remote-hop P99, with placement through the real
    power-of-two-choices policy ({!Nezha_core.Placement.select_p2c}).
    Hop P99 grows as util/(1−util) on per-FE utilization, so holding
    the budget requires the pool to track the ramp in both directions.

    The chaos variant ([slo_partition]) severs the BE rack's uplink for
    a window: every cross-rack pool member turns suspect at once and
    its capacity vanishes — observed P99 explodes, which is the bait.
    The §C.2 suppression window must freeze the pool instead:
    [pool_moves_in_partition] = 0 is the no-flapping gate. *)

module Slo = Nezha_core.Slo

type slo_config = {
  slo_seed : int;
  slo_duration : float;  (** one compressed "day", sim seconds *)
  slo_tick : float;  (** report/decision period *)
  slo_racks : int;
  slo_servers_per_rack : int;
  base_offered : float;  (** trough offered load, FE-capacity units *)
  ramp_ratio : float;  (** peak/trough offered ratio (×10) *)
  fe_capacity : float;  (** offered units one FE serves at util 1.0 *)
  base_hop : float;  (** remote-hop latency at zero utilization, s *)
  hop_noise_sigma : float;  (** lognormal sigma on the observed P99 *)
  slo : Slo.config;  (** the decision core's knobs *)
  flap_window : float;  (** reversal horizon for oscillation counting *)
  slo_partition : (float * float) option;  (** chaos: (start, duration) *)
}

val default_slo_config : slo_config
(** 96 servers in 6 racks, 600 s day, ×10 ramp, 5 ms target P99 with a
    30% hysteresis band, pool 4..48, no partition. *)

type slo_result = {
  slo_ticks : int;
  offered_ratio : float;  (** max/min offered actually swept *)
  pool_min : int;
  pool_max : int;
  pool_at_peak : int;  (** pool size at the middle of the hold phase *)
  pool_at_end : int;
  p99_peak : float;
  within_budget_fraction : float;
      (** post-warmup ticks with P99 <= target×(1+band) *)
  slo_scale_outs : int;
  slo_scale_ins : int;
  oscillations : int;
      (** direction reversals within [flap_window] of each other *)
  slo_suppressed_ticks : int;
  partition_suspects_max : int;
  pool_moves_in_partition : int;  (** must be 0: no flapping under §C.2 *)
  slo_digest : int;  (** per-tick fingerprint (pool, P99, decision) *)
}

val run_slo : slo_config -> slo_result
