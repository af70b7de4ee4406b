(* Controller edge cases: error paths, idempotence guards, capacity
   limits, and bookkeeping invariants. *)

open Nezha_engine
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let is_error = function Error _ -> true | Ok _ -> false

let offload_now t =
  Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
    ~vnic:Testbed.heavy_vnic_id ()

(* ------------------------------------------------------------------ *)

let test_double_offload_rejected () =
  let t = Testbed.create () in
  (match offload_now t with Ok _ -> () | Error e -> Alcotest.fail e);
  check_bool "second offload rejected" true (is_error (offload_now t));
  Sim.run t.Testbed.sim ~until:5.0;
  check_bool "still rejected after completion" true (is_error (offload_now t));
  check_int "only one offload event" 1 (Controller.offload_events t.Testbed.ctl)

let test_offload_unknown_vnic () =
  let t = Testbed.create () in
  check_bool "unknown vnic" true
    (is_error
       (Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
          ~vnic:(Vnic.id_of_int 777) ()));
  check_bool "bad server" true
    (is_error (Controller.offload_vnic t.Testbed.ctl ~server:9999 ~vnic:Testbed.heavy_vnic_id ()))

let test_double_fallback_rejected () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "second fallback rejected while in progress" true
    (is_error (Controller.fallback_vnic t.Testbed.ctl o));
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_bool "and after completion (offload gone)" true
    (is_error (Controller.fallback_vnic t.Testbed.ctl o))

let test_offload_after_fallback_works () =
  (* The full round trip is repeatable. *)
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let o2 = Testbed.offload t () in
  check_int "four FEs again" 4 (List.length (Controller.offload_fe_servers o2));
  check_int "two offload events" 2 (Controller.offload_events t.Testbed.ctl)

let test_migrate_errors () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  check_bool "target without vswitch" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:9999));
  (* A server can't re-host the vNIC it already has. *)
  check_bool "same server rejected" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:t.Testbed.heavy_server));
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_bool "migrate after fallback rejected" true
    (is_error (Controller.migrate_be t.Testbed.ctl o ~to_server:5))

let test_pin_errors () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (match Controller.fallback_vnic t.Testbed.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let flow =
    Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
      ~dst:t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.ip ~src_port:1 ~dst_port:2
      ~proto:Nezha_net.Five_tuple.Udp
  in
  check_bool "pin on inactive offload rejected" true
    (is_error (Controller.pin_elephant t.Testbed.ctl o flow))

let test_scale_out_limits () =
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 () in
  (* 8 servers: any idle vSwitch but the BE qualifies, clients included
     (they are barely loaded) — 7 candidates. *)
  let o = Testbed.offload t ~num_fes:4 () in
  check_int "zero add is zero" 0 (Controller.scale_out t.Testbed.ctl o ~add:0);
  let added = Controller.scale_out t.Testbed.ctl o ~add:10 in
  check_int "supply-bounded" 3 added;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_int "seven FEs total" 7 (List.length (Controller.offload_fe_servers o))

(* Evicting an offload's only FE when no other candidate is eligible
   must fall back to local serving, as failover does — not leave the
   vNIC routed to the evicted FE with an empty FE set. *)
let test_scale_in_last_fe_falls_back () =
  let t = Testbed.create () in
  let o = Testbed.offload t ~num_fes:1 () in
  let fe = List.hd (Controller.offload_fe_servers o) in
  List.iter
    (fun s ->
      if s <> fe && s <> t.Testbed.heavy_server then
        Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric s)))
    (Topology.servers (Fabric.topology t.Testbed.fabric));
  Controller.scale_in_server t.Testbed.ctl fe;
  let topo = Fabric.topology t.Testbed.fabric in
  let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
  Alcotest.(check (option (array int32)))
    "gateway targets the BE"
    (Some [| Nezha_net.Ipv4.to_int32 (Topology.underlay_ip topo t.Testbed.heavy_server) |])
    (Option.map (Array.map Nezha_net.Ipv4.to_int32)
       (Gateway.lookup (Fabric.gateway t.Testbed.fabric) addr));
  check_bool "conservation holds" true (Controller.check_conservation t.Testbed.ctl);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_int "offload retired" 0 (List.length (Controller.offloads t.Testbed.ctl));
  check_bool "vNIC served locally again" true
    (Vswitch.ruleset (Fabric.vswitch t.Testbed.fabric t.Testbed.heavy_server)
       Testbed.heavy_vnic_id
    <> None)

let test_offload_more_fes_than_pool () =
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 () in
  match
    Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
      ~vnic:Testbed.heavy_vnic_id ~num_fes:64 ()
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Sim.run t.Testbed.sim ~until:5.0;
    check_int "capped at the candidate supply" 7 (List.length (Controller.offload_fe_servers o))

let test_completion_bookkeeping () =
  let t = Testbed.create () in
  for _ = 1 to 3 do
    let o = Testbed.offload t () in
    (match Controller.fallback_vnic t.Testbed.ctl o with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0)
  done;
  check_int "three completions recorded" 3
    (Stats.Histogram.count (Controller.completion_times_ms t.Testbed.ctl));
  check_int "three events" 3 (Controller.offload_events t.Testbed.ctl);
  check_int "twelve FEs provisioned" 12 (Controller.fes_provisioned t.Testbed.ctl);
  let avg = Stats.Histogram.mean (Controller.completion_times_ms t.Testbed.ctl) in
  check_bool "activation on the second scale" true (avg > 200.0 && avg < 5000.0)

let test_utilization_views_sane () =
  let t = Testbed.create () in
  List.iter
    (fun s ->
      let cpu = Controller.last_cpu t.Testbed.ctl s and mem = Controller.last_mem t.Testbed.ctl s in
      check_bool "cpu in range" true (cpu >= 0.0 && cpu <= 1.0);
      check_bool "mem in range" true (mem >= 0.0 && mem <= 1.0))
    (Topology.servers (Fabric.topology t.Testbed.fabric));
  check_bool "unknown server pessimistic" true (Controller.last_cpu t.Testbed.ctl 9999 >= 1.0)

let test_update_rules_during_dual_running () =
  let t = Testbed.create () in
  match offload_now t with
  | Error e -> Alcotest.fail e
  | Ok o ->
    (* Still configuring: BE tables local, no FE replicas yet.  The
       update must not crash and must reach the master copy. *)
    Controller.update_tenant_rules t.Testbed.ctl o (fun rs ->
        Ruleset.add_route rs (Nezha_net.Ipv4.Prefix.make (Nezha_net.Ipv4.of_octets 172 16 0 0) 12));
    Sim.run t.Testbed.sim ~until:5.0;
    check_bool "offload still completed" true (Controller.offload_stage o = Be.Final);
    (* The FE replicas were cloned from the updated master. *)
    let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
    let probe =
      Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
        ~dst:(Nezha_net.Ipv4.of_octets 172 16 0 5) ~src_port:1000 ~dst_port:80
        ~proto:Nezha_net.Five_tuple.Tcp
    in
    List.iter
      (fun s ->
        match Controller.fe_service t.Testbed.ctl s with
        | Some fe -> (
          match Fe.ruleset_of fe addr with
          | Some replica ->
            check_bool "replica has the new route" true
              (Ruleset.lookup replica ~vpc:t.Testbed.vpc ~flow_tx:probe
              <> None)
          | None -> Alcotest.fail "replica missing")
        | None -> ())
      (Controller.offload_fe_servers o)

(* ------------------------------------------------------------------ *)
(* p2c placement policy and the SLO loop (DESIGN.md §15) *)

let test_p2c_policy_places_offload () =
  let cfg =
    { Controller.default_config with Controller.placement = Placement.Power_of_two }
  in
  let t = Testbed.create ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t () in
  let fes = Controller.offload_fe_servers o in
  check_int "four FEs" 4 (List.length fes);
  check_int "distinct FEs" 4 (List.length (List.sort_uniq compare fes));
  check_bool "BE is not an FE" true (not (List.mem t.Testbed.heavy_server fes));
  List.iter
    (fun s ->
      check_bool "load signal non-negative" true
        (Controller.load_signal t.Testbed.ctl s >= 0.0))
    fes;
  (* Same seed, same draw: p2c placement is deterministic. *)
  let t2 = Testbed.create ~controller_config:cfg () in
  Controller.start t2.Testbed.ctl;
  let o2 = Testbed.offload t2 () in
  Alcotest.(check (list int)) "seed-deterministic placement" fes
    (Controller.offload_fe_servers o2)

let test_slo_loop_scales_out_on_tight_budget () =
  (* A 1 µs budget no real hop can meet: every post-warmup tick wants
     capacity, so the pool must climb to the candidate supply. *)
  let slo =
    {
      Slo.default_config with
      Slo.target_p99 = 1e-6;
      cooldown = 2.0;
      warmup = 1.0;
      min_pool = 2;
      max_pool = 7;
      max_step = 1;
    }
  in
  let cfg = { Controller.default_config with Controller.slo = Some slo } in
  let t = Testbed.create ~racks:2 ~servers_per_rack:4 ~clients:2 ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t () in
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:12.0 () : Nezha_workloads.Tcp_crr.t);
  let slo_state = Option.get (Controller.slo t.Testbed.ctl) in
  check_bool "scale-outs happened" true (Slo.scale_outs slo_state > 0);
  check_bool "pool grew beyond the initial four" true
    (List.length (Controller.offload_fe_servers o) > 4);
  check_bool "pool gauge agrees" true (Controller.slo_pool_size t.Testbed.ctl > 4)

let test_slo_loop_scales_in_to_the_floor () =
  (* A 10 s budget every hop beats: the loop must drain the pool, and
     stop exactly at the serving minimum — the controller's failover
     floor, which sits above the SLO loop's own. *)
  let slo =
    {
      Slo.default_config with
      Slo.target_p99 = 10.0;
      cooldown = 2.0;
      warmup = 1.0;
      min_pool = 2;
      max_pool = 8;
      max_step = 1;
    }
  in
  let cfg =
    { Controller.default_config with Controller.slo = Some slo }
  in
  let t = Testbed.create ~controller_config:cfg () in
  Controller.start t.Testbed.ctl;
  let o = Testbed.offload t ~num_fes:(Policy.min_fes + 2) () in
  check_int "starts two above the floor" (Policy.min_fes + 2)
    (List.length (Controller.offload_fe_servers o));
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:15.0 () : Nezha_workloads.Tcp_crr.t);
  let slo_state = Option.get (Controller.slo t.Testbed.ctl) in
  check_bool "scale-ins happened" true (Slo.scale_ins slo_state > 0);
  check_int "drained exactly to the serving minimum" Policy.min_fes
    (List.length (Controller.offload_fe_servers o))

(* ------------------------------------------------------------------ *)
(* Golden trajectory: one seeded scenario through every intent step the
   controller has — offload, scale-out, both scale-ins, reconcile after
   FE and BE reboots, anti-entropy repair, failover, elephant pinning,
   fallback.  After each step the observable control-plane state (BE
   stage, FE set, gateway targets, repair/reconcile/RPC/provisioning
   counters, the completion histogram) and the number of events run so
   far are folded into one digest.  A change to what a step does, or to
   the events it schedules, moves the digest. *)

let test_golden_trajectory () =
  let t = Testbed.create ~seed:5 () in
  let ctl = t.Testbed.ctl in
  Controller.start ctl;
  let addr = { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip } in
  let digest = ref 17 in
  let mix x = digest := (!digest * 1000003) lxor x in
  let mix_float f = mix (Int64.to_int (Int64.logand (Int64.bits_of_float f) 0xffffffffL)) in
  let fold o =
    mix (match Controller.offload_stage o with Be.Dual -> 1 | Be.Final -> 2);
    List.iter mix (Controller.offload_fe_servers o);
    mix (-1);
    (match Gateway.lookup (Fabric.gateway t.Testbed.fabric) addr with
    | Some targets ->
      Array.iter (fun ip -> mix (Int32.to_int (Nezha_net.Ipv4.to_int32 ip))) targets
    | None -> mix (-2));
    mix (Controller.repairs ctl);
    mix (Controller.reconciles ctl);
    mix (Controller.rpc_attempts ctl);
    mix (Controller.fes_provisioned ctl);
    let h = Controller.completion_times_ms ctl in
    mix (Stats.Histogram.count h);
    mix_float (Stats.Histogram.total h);
    mix (Sim.events_executed t.Testbed.sim)
  in
  let run_for d = Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. d) in
  let o = Testbed.offload t () in
  fold o;
  ignore (Testbed.run_crr t ~rate:300.0 ~duration:1.0 () : Nezha_workloads.Tcp_crr.t);
  fold o;
  ignore (Controller.scale_out ctl o ~add:2 : int);
  run_for 2.0;
  fold o;
  ignore (Controller.scale_in_offload ctl o ~remove:1 : int);
  run_for 1.0;
  fold o;
  Controller.scale_in_server ctl (List.hd (Controller.offload_fe_servers o));
  run_for 2.0;
  fold o;
  (* FE host crash and reboot: reconciliation re-serves the replica. *)
  let f = List.hd (Controller.offload_fe_servers o) in
  Faults.crash_server t.Testbed.faults ~reboot_after:0.2 f;
  run_for 2.0;
  fold o;
  (* BE host crash and reboot: reconciliation installs a fresh tracker. *)
  let be0 = Controller.offload_be o in
  Faults.crash_server t.Testbed.faults ~reboot_after:0.2 t.Testbed.heavy_server;
  run_for 2.0;
  check_bool "BE tracker replaced" true
    (Controller.offload_be o != be0 && not (Be.closed (Controller.offload_be o)));
  fold o;
  (* A replica lost behind the controller's back: anti-entropy repair. *)
  (match Controller.fe_service ctl (List.nth (Controller.offload_fe_servers o) 1) with
  | Some fe -> Fe.unserve fe addr
  | None -> Alcotest.fail "no FE service");
  run_for 2.0;
  fold o;
  (* SmartNIC crash: the monitor declares the FE dead and fails over. *)
  let dead = List.nth (Controller.offload_fe_servers o) 2 in
  Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric dead));
  run_for 3.0;
  fold o;
  let flow =
    Nezha_net.Five_tuple.make ~src:Testbed.heavy_ip
      ~dst:t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.ip ~src_port:7 ~dst_port:9
      ~proto:Nezha_net.Five_tuple.Udp
  in
  (match Controller.pin_elephant ctl o flow with
  | Ok s -> mix s
  | Error e -> Alcotest.fail e);
  run_for 1.0;
  fold o;
  (match Controller.fallback_vnic ctl o with Ok () -> () | Error e -> Alcotest.fail e);
  run_for 2.0;
  fold o;
  check_bool "conservation holds" true (Controller.check_conservation ctl);
  check_int "trajectory digest" 3416256737444997404 !digest

let () =
  Alcotest.run "controller"
    [
      ( "errors",
        [
          Alcotest.test_case "double offload rejected" `Quick test_double_offload_rejected;
          Alcotest.test_case "unknown vnic/server" `Quick test_offload_unknown_vnic;
          Alcotest.test_case "double fallback rejected" `Quick test_double_fallback_rejected;
          Alcotest.test_case "migrate errors" `Quick test_migrate_errors;
          Alcotest.test_case "pin errors" `Quick test_pin_errors;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "scale-out limits" `Quick test_scale_out_limits;
          Alcotest.test_case "offload capped at pool" `Quick test_offload_more_fes_than_pool;
          Alcotest.test_case "scale-in of the last FE falls back" `Quick
            test_scale_in_last_fe_falls_back;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "offload after fallback" `Quick test_offload_after_fallback_works;
          Alcotest.test_case "completion histogram" `Quick test_completion_bookkeeping;
          Alcotest.test_case "utilization views" `Quick test_utilization_views_sane;
          Alcotest.test_case "rule update during dual-running" `Quick
            test_update_rules_during_dual_running;
          Alcotest.test_case "golden trajectory" `Quick test_golden_trajectory;
        ] );
      ( "slo",
        [
          Alcotest.test_case "p2c policy places offloads" `Quick
            test_p2c_policy_places_offload;
          Alcotest.test_case "tight budget scales the pool out" `Quick
            test_slo_loop_scales_out_on_tight_budget;
          Alcotest.test_case "loose budget scales in to the floor" `Quick
            test_slo_loop_scales_in_to_the_floor;
        ] );
    ]
