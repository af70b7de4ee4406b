(** Statistical model of a production region: O(10K) vSwitches with
    heavy-tailed load.

    The paper's Figs. 2–4, 13, 15 and Table 1 are fleet telemetry, not
    testbed measurements, so this module synthesizes a fleet whose
    marginal distributions are *quantile-matched* to the published
    percentiles: the quantile functions interpolate (log-linearly)
    through the paper's anchor points — Fig. 4's CPU/memory utilization
    percentiles and Table 1's demand-share percentiles.  Sampling u ~
    U(0,1) through these functions reproduces the published tails by
    construction; everything downstream (overload classification, the
    hotspot mix, Nezha's effect on daily overloads) is then derived, not
    assumed. *)

open Nezha_engine

(** {1 Calibrated quantile functions} *)

val cpu_util_quantile : float -> float
(** Fig. 4a anchors: avg ≈5%, P90 15%, P99 41%, P999 68%, P9999 90%. *)

val mem_util_quantile : float -> float
(** Fig. 4b anchors: avg ≈1.5%, P90 15%, P99 34%, P999 93%, P9999 96%. *)

val cps_demand_quantile : float -> float
(** Table 1 (normalized to the P9999 user = 1.0): P50 0.53%, P90 1.41%,
    P99 6.41%, P999 18.38%. *)

val flows_demand_quantile : float -> float
val vnics_demand_quantile : float -> float

(** {1 Fleet sampling} *)

type profile = {
  cpu : float;  (** vSwitch CPU utilization, \[0,1\] *)
  mem : float;
  cps : float;  (** demand, normalized to the fleet max = 1.0 *)
  flows : float;
  vnics : float;
}

val sample : Rng.t -> profile
val sample_fleet : Rng.t -> n:int -> profile array

val poisson : Rng.t -> float -> int
(** Knuth's product method — small means only (used for per-hotspot
    daily event counts, here and in {!Region_sim}). *)

(** {1 Overload classification (Fig. 3)} *)

type cause = Cps | Flows | Vnics

val pp_cause : Format.formatter -> cause -> unit

type capacities = { cps_cap : float; flows_cap : float; vnics_cap : float }

val default_capacities : capacities
(** Normalized per-vSwitch capability thresholds, placed so the hotspot
    mix lands near the paper's 61% / 30% / 9%. *)

val classify : capacities -> profile array -> (cause * int) list
(** Overloaded vSwitches per cause (a vSwitch can appear under several
    causes if it exceeds several capacities). *)

(** {1 Daily overloads before/after Nezha (Fig. 13)} *)

type day = { before : int; after : int }

val daily_overloads :
  Rng.t ->
  n_vswitches:int ->
  capacities:capacities ->
  cause:cause ->
  days:int ->
  day list
(** Each hotspot produces Poisson-many overload events per day (mean 3).
    With Nezha, an event still *occurs* only when the demand spike ramps
    faster than offload activation completes (§6.3.3): ramps are
    log-normal around 45 s, activations log-normal around 1 s.  #vNIC
    overloads never occur because rule tables are created directly on
    FEs. *)

(** {1 State sizes (Fig. 15)} *)

val state_size_samples : Rng.t -> n:int -> float array
(** Per-session encoded state sizes drawn from a production-like NF mix,
    measured with the real {!Nezha_vswitch.State} codec. *)

(** {1 High-CPS VMs (Fig. 2)} *)

val high_cps_vm_sample : Rng.t -> n:int -> (float * float) array
(** [(vm_cpu, vswitch_cpu)] pairs for VMs whose CPS demand saturates
    their SmartNIC: the vSwitch side is ≥95% busy while most VMs sit
    under 60%. *)

(** {1 VM live migration (Fig. A1)} *)

val migration_downtime_s : Rng.t -> vcpus:int -> mem_gb:int -> float
val migration_completion_s : Rng.t -> vcpus:int -> mem_gb:int -> float
