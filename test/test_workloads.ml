(* Tests for the traffic generators, the region model, and the Sirius
   baseline. *)

open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch
open Nezha_fabric
open Nezha_workloads
open Nezha_baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)
let vpc = Vpc.make 9

let test_params =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 32 * 1024 * 1024 }

type duo = {
  sim : Sim.t;
  fabric : Fabric.t;
  rng : Rng.t;
  client : Tcp_crr.endpoint;
  server : Tcp_crr.endpoint;
}

(* Two populated servers (0: server vNIC, 1: client vNIC) in a rack of
   [servers_per_rack]; remaining slots stay empty for pools. *)
let make_duo ?(racks = 1) ?(servers_per_rack = 8) ?(params = test_params) ?client_params () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let topo = Topology.create ~racks ~servers_per_rack in
  let fabric = Fabric.create ~sim ~topology:topo in
  let vs0 = Fabric.add_server fabric 0 ~params in
  let vs1 = Fabric.add_server fabric 1 ~params:(Option.value client_params ~default:params) in
  let server_vnic = Vnic.make ~id:1 ~vpc ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 1L) in
  let client_vnic = Vnic.make ~id:2 ~vpc ~ip:(ip "10.0.0.2") ~mac:(Mac.of_int64 2L) in
  let rs0 = Ruleset.create ~vni:9 () in
  Ruleset.add_route rs0 (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs0 { Vnic.Addr.vpc; ip = ip "10.0.0.2" } (ip "192.168.1.2");
  let rs1 = Ruleset.create ~vni:9 () in
  Ruleset.add_route rs1 (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs1 { Vnic.Addr.vpc; ip = ip "10.0.0.1" } (ip "192.168.1.1");
  (match (Vswitch.add_vnic vs0 server_vnic rs0, Vswitch.add_vnic vs1 client_vnic rs1) with
  | Ok (), Ok () -> ()
  | _, _ -> Alcotest.fail "vnics must fit");
  let server_vm = Vm.create ~sim ~name:"server" ~vcpus:32 () in
  let client_vm = Vm.create ~sim ~name:"client" ~vcpus:32 () in
  Fabric.attach_vm fabric 0 server_vnic.Vnic.id server_vm;
  Fabric.attach_vm fabric 1 client_vnic.Vnic.id client_vm;
  Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = ip "10.0.0.1" }
    [| ip "192.168.1.1" |];
  Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = ip "10.0.0.2" }
    [| ip "192.168.1.2" |];
  {
    sim;
    fabric;
    rng;
    client = { Tcp_crr.vs = vs1; vnic = client_vnic.Vnic.id; vm = client_vm; ip = ip "10.0.0.2" };
    server = { Tcp_crr.vs = vs0; vnic = server_vnic.Vnic.id; vm = server_vm; ip = ip "10.0.0.1" };
  }

(* ------------------------------------------------------------------ *)
(* Tcp_crr *)

let test_crr_completes () =
  let d = make_duo () in
  let crr =
    Tcp_crr.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~rate:200.0
      ~duration:2.0 ()
  in
  Sim.run d.sim ~until:4.0;
  check_bool "offered plenty" true (Tcp_crr.offered crr > 300);
  check_int "all established" (Tcp_crr.offered crr) (Tcp_crr.established crr);
  check_int "all completed" (Tcp_crr.offered crr) (Tcp_crr.completed crr);
  check_bool "latency measured" true (Stats.Histogram.count (Tcp_crr.latencies crr) > 0);
  (* End-to-end latency at light load: a few wire hops + processing. *)
  let p50 = Stats.Histogram.percentile (Tcp_crr.latencies crr) 50.0 in
  check_bool "latency sane (< 5 ms)" true (p50 < 0.005)

let test_crr_saturates_under_overload () =
  let params = { test_params with Params.cpu_hz = 5e6; queue_capacity = 32 } in
  let d = make_duo ~params () in
  (* Capacity ~ 5e6/51k ≈ 100 slow paths/s; offer 10x. *)
  let crr =
    Tcp_crr.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~rate:1000.0
      ~duration:2.0 ()
  in
  Sim.run d.sim ~until:6.0;
  check_bool "completed far fewer than offered" true
    (Tcp_crr.completed crr < Tcp_crr.offered crr / 2);
  check_bool "vswitch dropped" true (Vswitch.total_drops d.server.Tcp_crr.vs > 0)

(* ------------------------------------------------------------------ *)
(* Persistent *)

let test_persistent_holds_flows () =
  let d = make_duo () in
  let gen =
    Persistent.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~target:500
      ~ramp_rate:2000.0 ~keepalive:2.0 ()
  in
  (* Well past the 8 s aging: keep-alives must hold every session. *)
  Sim.run d.sim ~until:20.0;
  check_int "opened all" 500 (Persistent.opened gen);
  let live = Persistent.live_flows gen () in
  check_bool "sessions held live" true (live >= 490);
  Persistent.stop gen;
  Sim.run d.sim ~until:40.0;
  check_bool "sessions age out after stop" true (Persistent.live_flows gen () < 50)

let test_persistent_capacity_bounded () =
  (* Memory sized so only ~2.2k sessions fit beyond the rule tables. *)
  let params = { test_params with Params.mem_bytes = (2 * 1024 * 1024) + 400_000 } in
  let d = make_duo ~params ~client_params:test_params () in
  let gen =
    Persistent.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~target:5000
      ~ramp_rate:5000.0 ()
  in
  Sim.run d.sim ~until:10.0;
  check_bool "live below target" true (Persistent.live_flows gen () < 4000);
  check_bool "rejections happened" true (Persistent.rejected gen > 0);
  Persistent.stop gen

(* ------------------------------------------------------------------ *)
(* Syn_flood *)

let test_syn_flood_short_aging_bounds_memory () =
  let d = make_duo () in
  let flood =
    Syn_flood.start ~sim:d.sim ~rng:d.rng ~vpc ~attacker:d.client ~victim:d.server ~rate:500.0
      ~duration:6.0 ()
  in
  Sim.run d.sim ~until:3.0;
  let live_during = Vswitch.session_count d.server.Tcp_crr.vs d.server.Tcp_crr.vnic in
  (* Short SYN aging (2 s) caps the standing population near rate x 2s,
     far below the 3000 sent by now. *)
  check_bool "population bounded by syn aging" true (live_during < 1800);
  Sim.run d.sim ~until:12.0;
  check_bool "flood sent" true (Syn_flood.sent flood > 2000);
  let live_after = Vswitch.session_count d.server.Tcp_crr.vs d.server.Tcp_crr.vnic in
  check_bool "drained after flood" true (live_after < 100)

(* ------------------------------------------------------------------ *)
(* Middlebox profiles *)

let test_middlebox_profiles () =
  check_int "tr bypasses acl" 0 (Middlebox.acl_rules Middlebox.Transit_router);
  check_bool "nat heaviest acl" true
    (Middlebox.acl_rules Middlebox.Nat_gateway > Middlebox.acl_rules Middlebox.Load_balancer);
  let rng = Rng.create 1 in
  List.iter
    (fun kind ->
      let rs = Middlebox.make_ruleset kind ~rng ~vni:7 ~mem_scale:1000.0 () in
      check_int "acl populated" (Middlebox.acl_rules kind) (Acl.rule_count (Ruleset.acl rs));
      check_bool "rule bytes scaled" true
        (Ruleset.memory_bytes rs >= Middlebox.rule_table_bytes kind ~mem_scale:1000.0);
      check_bool "decap only for LB" true
        (Ruleset.stateful_decap rs = (kind = Middlebox.Load_balancer)))
    Middlebox.all

(* ------------------------------------------------------------------ *)
(* Region model *)

let test_region_quantiles_monotone () =
  let mono q = List.for_all2 (fun a b -> q a <= q b +. 1e-12)
      [ 0.0; 0.5; 0.9; 0.99; 0.999 ] [ 0.5; 0.9; 0.99; 0.999; 0.9999 ] in
  check_bool "cpu monotone" true (mono Region.cpu_util_quantile);
  check_bool "mem monotone" true (mono Region.mem_util_quantile);
  check_bool "cps monotone" true (mono Region.cps_demand_quantile)

let test_region_matches_paper_percentiles () =
  let rng = Rng.create 11 in
  let fleet = Region.sample_fleet rng ~n:50_000 in
  let cpus = Array.map (fun p -> p.Region.cpu) fleet in
  let p99 = Stats.percentile cpus 99.0 in
  let p90 = Stats.percentile cpus 90.0 in
  check_bool "P90 ~ 15%" true (Float.abs (p90 -. 0.15) < 0.03);
  check_bool "P99 ~ 41%" true (Float.abs (p99 -. 0.41) < 0.06);
  let mean = Stats.mean cpus in
  check_bool "mean ~ 5%" true (mean > 0.02 && mean < 0.09);
  let mems = Array.map (fun p -> p.Region.mem) fleet in
  check_bool "mem P999 ~ 93%" true (Float.abs (Stats.percentile mems 99.9 -. 0.93) < 0.12);
  check_bool "mem mean small" true (Stats.mean mems < 0.05)

let test_region_hotspot_mix () =
  let rng = Rng.create 5 in
  let fleet = Region.sample_fleet rng ~n:100_000 in
  let counts = Region.classify Region.default_capacities fleet in
  let get c = List.assoc c counts in
  let total = get Region.Cps + get Region.Flows + get Region.Vnics in
  check_bool "some hotspots" true (total > 200);
  let frac c = float_of_int (get c) /. float_of_int total in
  check_bool "cps dominates ~61%" true (Float.abs (frac Region.Cps -. 0.61) < 0.12);
  check_bool "flows ~30%" true (Float.abs (frac Region.Flows -. 0.30) < 0.12);
  check_bool "vnics ~9%" true (Float.abs (frac Region.Vnics -. 0.09) < 0.07)

let test_region_daily_overloads () =
  let rng = Rng.create 3 in
  let run cause =
    Region.daily_overloads rng ~n_vswitches:20_000 ~capacities:Region.default_capacities ~cause
      ~days:30
  in
  let sum f days = List.fold_left (fun acc d -> acc + f d) 0 days in
  let cps_days = run Region.Cps in
  let before = sum (fun d -> d.Region.before) cps_days in
  let after = sum (fun d -> d.Region.after) cps_days in
  check_bool "plenty before" true (before > 1000);
  check_bool ">99.9% resolved" true (float_of_int after /. float_of_int before < 0.001 +. 0.002);
  let vnic_days = run Region.Vnics in
  check_int "vnic overloads fully avoided" 0 (sum (fun d -> d.Region.after) vnic_days)

let test_region_state_sizes () =
  let rng = Rng.create 17 in
  let sizes = Region.state_size_samples rng ~n:20_000 in
  let avg = Stats.mean sizes in
  (* Fig. 15: region averages land between 5 and 8 bytes. *)
  check_bool "avg in 2..10 B" true (avg > 2.0 && avg < 10.0);
  check_bool "every state under the 64 B slot" true (Array.for_all (fun s -> s <= 64.0) sizes)

let test_region_high_cps_vms () =
  let rng = Rng.create 23 in
  let pts = Region.high_cps_vm_sample rng ~n:5_000 in
  Array.iter (fun (_, sw) -> check_bool "vswitch pinned" true (sw >= 0.95)) pts;
  let vm_below_60 =
    Array.fold_left (fun acc (vm, _) -> if vm < 0.60 then acc + 1 else acc) 0 pts
  in
  check_bool "~90% of VMs under 60%" true
    (float_of_int vm_below_60 /. 5000.0 > 0.80)

let test_region_migration_model () =
  let rng = Rng.create 29 in
  let avg f n = List.init n (fun _ -> f ()) |> List.fold_left ( +. ) 0.0 |> fun s -> s /. float_of_int n in
  let d_small = avg (fun () -> Region.migration_downtime_s rng ~vcpus:8 ~mem_gb:32) 50 in
  let d_big = avg (fun () -> Region.migration_downtime_s rng ~vcpus:128 ~mem_gb:1024) 50 in
  check_bool "downtime grows" true (d_big > 2.0 *. d_small);
  let c_big = avg (fun () -> Region.migration_completion_s rng ~vcpus:128 ~mem_gb:1024) 50 in
  check_bool "1TB migration takes minutes" true (c_big > 240.0);
  (* The §7.2 comparison: migration downtime dwarfs Nezha's 2 s offload. *)
  check_bool "downtime exceeds offload activation" true (d_big > 2.0)

(* ------------------------------------------------------------------ *)
(* Sirius baseline *)

let test_sirius_end_to_end () =
  let d = make_duo ~servers_per_rack:8 () in
  let sirius = Sirius.create ~fabric:d.fabric ~cards:[ 4; 5; 6; 7 ] () in
  (match Sirius.offload_vnic sirius ~server:0 ~vnic:d.server.Tcp_crr.vnic with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let crr =
    Tcp_crr.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~rate:100.0
      ~duration:2.0 ()
  in
  Sim.run d.sim ~until:5.0;
  check_bool "connections completed through the pool" true
    (Tcp_crr.completed crr > Tcp_crr.offered crr * 9 / 10);
  check_bool "pool processed connections" true (Sirius.connections_processed sirius > 0);
  (* Every state-changing packet ping-ponged through the backup. *)
  check_bool "replication ping-pongs happened" true
    (Sirius.replication_pingpongs sirius >= Sirius.connections_processed sirius)

let test_sirius_rebalance_transfers_state () =
  let d = make_duo ~servers_per_rack:8 () in
  let sirius = Sirius.create ~fabric:d.fabric ~cards:[ 4; 5; 6; 7 ] () in
  (match Sirius.offload_vnic sirius ~server:0 ~vnic:d.server.Tcp_crr.vnic with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let gen =
    Persistent.start ~sim:d.sim ~rng:d.rng ~vpc ~client:d.client ~server:d.server ~target:200
      ~ramp_rate:2000.0 ()
  in
  Sim.run d.sim ~until:3.0;
  check_int "no transfers yet" 0 (Sirius.state_transfers sirius);
  Sirius.rebalance sirius;
  check_bool "sessions transferred with their buckets" true (Sirius.state_transfers sirius > 50);
  Persistent.stop gen

let test_sirius_requires_even_cards () =
  let d = make_duo ~servers_per_rack:8 () in
  Alcotest.check_raises "odd cards"
    (Invalid_argument "Sirius.create: need an even number (>= 2) of cards") (fun () ->
      ignore (Sirius.create ~fabric:d.fabric ~cards:[ 4; 5; 6 ] () : Sirius.t))

(* ------------------------------------------------------------------ *)
(* SLO-tracking ramp (DESIGN.md §15), at the check.sh --smoke scale so
   it fits the tier-1 budget. *)

let slo_smoke_cfg =
  let base = Region_sim.default_slo_config in
  {
    base with
    Region_sim.slo_duration = 150.0;
    slo =
      {
        base.Region_sim.slo with
        Region_sim.Slo.cooldown = 2.0;
        warmup = 3.0;
        suppress_hold = 8.0;
      };
    flap_window = 15.0;
  }

let test_slo_ramp_tracks_load () =
  let r = Region_sim.run_slo slo_smoke_cfg in
  check_bool "offered load really ramped x10" true (r.Region_sim.offered_ratio >= 9.9);
  check_bool "pool followed the ramp up" true
    (r.Region_sim.pool_max >= 3 * r.Region_sim.pool_min);
  check_bool "pool scaled back in" true
    (r.Region_sim.pool_at_end <= r.Region_sim.pool_min + 1);
  check_bool "both directions exercised" true
    (r.Region_sim.slo_scale_outs > 0 && r.Region_sim.slo_scale_ins > 0);
  check_int "no decision oscillations" 0 r.Region_sim.oscillations;
  check_bool "P99 mostly within budget" true
    (r.Region_sim.within_budget_fraction >= 0.7)

let test_slo_partition_does_not_flap () =
  let cfg =
    { slo_smoke_cfg with Region_sim.slo_partition = Some (63.75, 15.0) }
  in
  let r = Region_sim.run_slo cfg in
  check_bool "partition made pool members suspect" true
    (r.Region_sim.partition_suspects_max > 0);
  check_bool "suppression window engaged" true (r.Region_sim.slo_suppressed_ticks > 0);
  check_int "pool frozen through the partition" 0
    r.Region_sim.pool_moves_in_partition;
  check_int "no oscillations under chaos" 0 r.Region_sim.oscillations

let test_slo_run_deterministic () =
  let a = Region_sim.run_slo slo_smoke_cfg in
  let b = Region_sim.run_slo slo_smoke_cfg in
  check_int "same seed, same digest" a.Region_sim.slo_digest b.Region_sim.slo_digest

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "workloads"
    [
      ( "tcp_crr",
        [
          Alcotest.test_case "completes at light load" `Quick test_crr_completes;
          Alcotest.test_case "saturates under overload" `Quick test_crr_saturates_under_overload;
        ] );
      ( "persistent",
        [
          Alcotest.test_case "holds flows" `Quick test_persistent_holds_flows;
          Alcotest.test_case "capacity bounded" `Quick test_persistent_capacity_bounded;
        ] );
      ( "syn_flood",
        [ Alcotest.test_case "short aging bounds memory" `Quick test_syn_flood_short_aging_bounds_memory ] );
      ("middlebox", [ Alcotest.test_case "profiles" `Quick test_middlebox_profiles ]);
      ( "region",
        [
          Alcotest.test_case "quantiles monotone" `Quick test_region_quantiles_monotone;
          Alcotest.test_case "matches paper percentiles" `Quick test_region_matches_paper_percentiles;
          Alcotest.test_case "hotspot mix" `Quick test_region_hotspot_mix;
          Alcotest.test_case "daily overloads" `Quick test_region_daily_overloads;
          Alcotest.test_case "state sizes" `Quick test_region_state_sizes;
          Alcotest.test_case "high-cps vms" `Quick test_region_high_cps_vms;
          Alcotest.test_case "migration model" `Quick test_region_migration_model;
        ] );
      ( "slo_ramp",
        [
          Alcotest.test_case "pool tracks a x10 diurnal ramp" `Quick
            test_slo_ramp_tracks_load;
          Alcotest.test_case "rack partition does not flap the pool" `Quick
            test_slo_partition_does_not_flap;
          Alcotest.test_case "same seed same digest" `Quick
            test_slo_run_deterministic;
        ] );
      ( "sirius",
        [
          Alcotest.test_case "end to end" `Quick test_sirius_end_to_end;
          Alcotest.test_case "rebalance transfers state" `Quick test_sirius_rebalance_transfers_state;
          Alcotest.test_case "requires even cards" `Quick test_sirius_requires_even_cards;
        ] );
    ]
