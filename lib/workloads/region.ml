open Nezha_engine
open Nezha_net
open Nezha_vswitch

(* Quantile functions built by log-linear interpolation through anchor
   points (u, value).  Log-space interpolation keeps the body of the
   distribution near the geometric mean of neighbouring anchors, which
   is what makes the sampled fleet's *average* land near the paper's
   reported averages while the anchors pin the tail percentiles. *)
let quantile_of_anchors anchors u =
  let u = Float.max 0.0 (Float.min 1.0 u) in
  let rec interp = function
    | (u1, v1) :: ((u2, v2) :: _ as rest) ->
      if u <= u1 then v1
      else if u <= u2 then begin
        let frac = (u -. u1) /. (u2 -. u1) in
        exp (log v1 +. (frac *. (log v2 -. log v1)))
      end
      else interp rest
    | [ (_, v) ] -> v
    | [] -> invalid_arg "quantile_of_anchors: no anchors"
  in
  interp anchors

(* Fig. 4a: CPU utilization of O(10K) vSwitches. *)
let cpu_anchors =
  [ (0.0, 0.002); (0.5, 0.012); (0.9, 0.15); (0.99, 0.41); (0.999, 0.68); (0.9999, 0.90); (1.0, 0.98) ]

(* Fig. 4b: memory utilization. *)
let mem_anchors =
  [ (0.0, 0.0005); (0.5, 0.0015); (0.9, 0.15); (0.99, 0.34); (0.999, 0.93); (0.9999, 0.96); (1.0, 0.98) ]

(* Table 1: normalized service usage (share of the P9999 user). *)
let cps_anchors =
  [ (0.0, 0.001); (0.5, 0.0053); (0.9, 0.0141); (0.99, 0.0641); (0.999, 0.1838); (0.9999, 1.0); (1.0, 1.0) ]

let flows_anchors =
  [ (0.0, 0.001); (0.5, 0.0078); (0.9, 0.0236); (0.99, 0.0639); (0.999, 0.2917); (0.9999, 1.0); (1.0, 1.0) ]

let vnics_anchors =
  [ (0.0, 0.001); (0.5, 0.0065); (0.9, 0.01); (0.99, 0.06); (0.999, 0.55); (0.9999, 1.0); (1.0, 1.0) ]

let cpu_util_quantile = quantile_of_anchors cpu_anchors
let mem_util_quantile = quantile_of_anchors mem_anchors
let cps_demand_quantile = quantile_of_anchors cps_anchors
let flows_demand_quantile = quantile_of_anchors flows_anchors
let vnics_demand_quantile = quantile_of_anchors vnics_anchors

type profile = { cpu : float; mem : float; cps : float; flows : float; vnics : float }

let sample rng =
  (* CPU load correlates with CPS demand, memory with flows/vNICs; the
     same uniform draw drives the correlated pair, a fresh draw the
     rest. *)
  let u_cpu = Rng.float rng 1.0 in
  let u_mem = Rng.float rng 1.0 in
  {
    cpu = cpu_util_quantile u_cpu;
    mem = mem_util_quantile u_mem;
    cps = cps_demand_quantile u_cpu;
    flows = flows_demand_quantile u_mem;
    vnics = vnics_demand_quantile (Rng.float rng 1.0);
  }

let sample_fleet rng ~n = Array.init n (fun _ -> sample rng)

type cause = Cps | Flows | Vnics

let pp_cause ppf c =
  Format.pp_print_string ppf
    (match c with Cps -> "cps" | Flows -> "#concurrent-flows" | Vnics -> "#vnics")

type capacities = { cps_cap : float; flows_cap : float; vnics_cap : float }

(* Thresholds placed on the demand quantile functions so the expected
   exceedance probabilities are ~0.61% (CPS), ~0.30% (flows) and ~0.09%
   (vNICs) of the fleet — Fig. 3's 61/30/9 hotspot mix. *)
let default_capacities =
  {
    cps_cap = cps_demand_quantile 0.9939;
    flows_cap = flows_demand_quantile 0.9970;
    vnics_cap = vnics_demand_quantile 0.9991;
  }

let classify caps fleet =
  let cps = ref 0 and flows = ref 0 and vnics = ref 0 in
  Array.iter
    (fun p ->
      if p.cps > caps.cps_cap then incr cps;
      if p.flows > caps.flows_cap then incr flows;
      if p.vnics > caps.vnics_cap then incr vnics)
    fleet;
  [ (Cps, !cps); (Flows, !flows); (Vnics, !vnics) ]

type day = { before : int; after : int }

let poisson rng lambda =
  (* Knuth's method; lambdas here are small. *)
  let limit = exp (-.lambda) in
  let rec draw k p =
    let p = p *. Rng.float rng 1.0 in
    if p <= limit then k else draw (k + 1) p
  in
  draw 0 1.0

(* Fig. 13's event model: a hotspot overloads a few times a day, its
   demand ramps over ~45 s (median), and offload activation takes ~1 s
   (median, §6.3.3). *)
let events_per_hotspot_per_day = 3.0
let ramp_median_s = 45.0
let activation_p50_ms = 1000.0

let daily_overloads rng ~n_vswitches ~capacities ~cause ~days =
  let fleet = sample_fleet rng ~n:n_vswitches in
  let hotspot p =
    match cause with
    | Cps -> p.cps > capacities.cps_cap
    | Flows -> p.flows > capacities.flows_cap
    | Vnics -> p.vnics > capacities.vnics_cap
  in
  let hotspots = Array.to_list fleet |> List.filter hotspot |> List.length in
  List.init days (fun _ ->
      let before = ref 0 and after = ref 0 in
      for _ = 1 to hotspots do
        let events = poisson rng events_per_hotspot_per_day in
        before := !before + events;
        (match cause with
        | Vnics ->
          (* Rule tables are created directly on the FEs: the local
             memory ceiling is simply never hit (§6.3.3). *)
          ()
        | Cps | Flows ->
          for _ = 1 to events do
            (* The overload still *occurs* only if the demand spike
               outruns offload activation. *)
            let ramp = ramp_median_s *. Rng.lognormal rng ~mu:0.0 ~sigma:1.1 in
            let activation =
              activation_p50_ms /. 1000.0 *. Rng.lognormal rng ~mu:0.0 ~sigma:0.35
            in
            if ramp < activation then incr after
          done)
      done;
      { before = !before; after = !after })

(* Fig. 15: per-session state sizes from a production-like NF mix,
   measured with the real codec (the fixed slot is 64 B regardless). *)
let state_size_samples rng ~n =
  Array.init n (fun _ ->
      let base = State.init ~first_dir:(if Rng.bool rng then Packet.Tx else Packet.Rx) () in
      let st =
        let u = Rng.float rng 1.0 in
        if u < 0.10 then base (* bare UDP-ish conntrack: direction only *)
        else if u < 0.35 then { base with State.tcp = Some State.Established }
        else if u < 0.65 then
          (* stateful decap (LB real-server side) *)
          {
            base with
            State.tcp = Some State.Established;
            decap_src = Some (Ipv4.of_octets 100 64 (Rng.int rng 256) (Rng.int rng 256));
          }
        else begin
          (* flow statistics armed; counters sized by traffic so far *)
          let packets = Rng.int_in rng 1000 10_000_000 in
          {
            base with
            State.tcp = Some State.Established;
            decap_src =
              (if Rng.chance rng 0.3 then
                 Some (Ipv4.of_octets 100 64 (Rng.int rng 256) (Rng.int rng 256))
               else None);
            stats = Some { State.packets; bytes = packets * Rng.int_in rng 64 1400 };
          }
        end
      in
      float_of_int (State.size_bytes st))

(* Fig. 2: VMs whose CPS demand saturates their SmartNIC.  The vSwitch
   side is pinned above 95%; the VM side is comfortable — 90% below 60%
   CPU (they have hundreds of vCPUs; the NIC has tens of cores). *)
let high_cps_vm_sample rng ~n =
  Array.init n (fun _ ->
      let vswitch_cpu = 0.95 +. Rng.float rng 0.05 in
      let vm_cpu = Float.min 0.95 (0.30 *. Rng.lognormal rng ~mu:0.0 ~sigma:0.45) in
      (vm_cpu, vswitch_cpu))

(* Fig. A1: live-migration cost model.  Completion is dominated by
   copying memory (with dirty-page re-copy rounds); downtime by the
   stop-and-copy of the final round plus per-vCPU device state. *)
let migration_completion_s rng ~vcpus ~mem_gb =
  let copy_rate_gb_s = 4.0 in
  let rounds = 1.8 +. Rng.float rng 0.8 in
  let base = float_of_int mem_gb /. copy_rate_gb_s *. rounds in
  base *. (1.0 +. (0.002 *. float_of_int vcpus)) *. Rng.lognormal rng ~mu:0.0 ~sigma:0.15

let migration_downtime_s rng ~vcpus ~mem_gb =
  let dirty_final_gb = 0.002 *. float_of_int mem_gb in
  let stop_copy = dirty_final_gb /. 1.0 in
  let device_state = 0.004 *. float_of_int vcpus in
  Float.max 0.05 ((0.2 +. stop_copy +. device_state) *. Rng.lognormal rng ~mu:0.0 ~sigma:0.25)
