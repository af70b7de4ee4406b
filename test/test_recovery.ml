(* Tests for the crash–restart recovery plane (DESIGN.md §13): node
   crash/restart lifecycle with volatile-state wipe and reconciliation,
   incarnation fencing of in-flight RPCs, epoch-fenced controller
   failover (the split-brain acceptance test), the BE
   retransmit-after-administrative-removal regression, anti-entropy
   repair, shard-aware fault scheduling, and a QCheck observational
   equivalence between a crashed-and-reconciled vSwitch and a freshly
   provisioned one. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness
open Nezha_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter c = Stats.Counter.value c
let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)

let heavy_addr (t : Testbed.t) =
  { Vnic.Addr.vpc = t.Testbed.vpc; ip = Testbed.heavy_ip }

let fe_service_exn ctl s =
  match Controller.fe_service ctl s with
  | Some fe -> fe
  | None -> Alcotest.fail (Printf.sprintf "no FE service on server %d" s)

(* ------------------------------------------------------------------ *)
(* Node lifecycle: crash wipes volatile state; restart reconciles *)

let test_fe_host_crash_reconciles () =
  let t = Testbed.create ~seed:21 () in
  let o = Testbed.offload t () in
  let addr = heavy_addr t in
  let f = List.hd (Controller.offload_fe_servers o) in
  let fe = fe_service_exn t.Testbed.ctl f in
  check_bool "FE serves before the crash" true (Fe.serves fe addr);
  Faults.crash_server t.Testbed.faults ~reboot_after:0.2 f;
  (* The crash instant: the node's volatile state is gone and so are
     the controller-side mirrors of it. *)
  check_bool "node is down" true (Faults.is_crashed t.Testbed.faults f);
  check_int "incarnation bumped" 1 (Faults.incarnation t.Testbed.faults f);
  check_bool "FE blobs wiped at crash" false (Fe.serves fe addr);
  check_int "vswitch sessions wiped" 0
    (Vswitch.total_sessions (Fabric.vswitch t.Testbed.fabric f));
  check_bool "intent no longer silently installed" true
    (Controller.check_conservation t.Testbed.ctl);
  (* Reboot + reconciliation: the FE re-requests provisioning and the
     controller re-pushes the replica. *)
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
  check_bool "node is back" false (Faults.is_crashed t.Testbed.faults f);
  check_int "one restart" 1 (Faults.server_restarts t.Testbed.faults);
  check_int "one reconciliation round" 1 (Controller.reconciles t.Testbed.ctl);
  check_bool "repairs applied" true (Controller.repairs t.Testbed.ctl >= 1);
  check_bool "FE serves again" true (Fe.serves fe addr);
  check_bool "conservation after recovery" true
    (Controller.check_conservation t.Testbed.ctl);
  (* And the dataplane still works end to end. *)
  let crr = Testbed.run_crr t ~rate:200.0 ~duration:1.0 () in
  check_bool "traffic completes after recovery" true (Tcp_crr.completed crr > 0)

let test_be_host_crash_reinstalls_tracker () =
  let t = Testbed.create ~seed:22 () in
  let o = Testbed.offload t () in
  let be0 = Controller.offload_be o in
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:1.0 () : Tcp_crr.t);
  Faults.crash_server t.Testbed.faults ~reboot_after:0.2 t.Testbed.heavy_server;
  check_bool "pre-crash BE instance permanently closed" true (Be.closed be0);
  let c0 = Be.counters be0 in
  check_bool "closed BE conserves its books (drops absorb in-flight)" true
    (counter c0.Be.offload_tracked
    = counter c0.Be.offload_acked + counter c0.Be.local_fallback
      + counter c0.Be.offload_dropped + Be.outstanding be0);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
  let be1 = Controller.offload_be o in
  check_bool "reconciliation installed a fresh tracker" true (not (Be.closed be1));
  check_bool "fresh instance, not the dead one" true (not (be0 == be1));
  check_bool "offload stage preserved across the crash" true
    (Controller.offload_stage o = Be.Final);
  check_bool "conservation after BE recovery" true
    (Controller.check_conservation t.Testbed.ctl);
  let crr = Testbed.run_crr t ~rate:200.0 ~duration:1.0 () in
  check_bool "traffic completes via the fresh BE" true (Tcp_crr.completed crr > 0)

(* A second crash while the reconcile RPC is in flight: the reply is
   from a process that no longer exists and must be discarded (the
   incarnation fence), and the *second* reboot's reconciliation must
   still land. *)
let test_stale_reconcile_reply_discarded () =
  let t = Testbed.create ~seed:23 () in
  let o = Testbed.offload t () in
  let addr = heavy_addr t in
  let f = List.hd (Controller.offload_fe_servers o) in
  let now = Sim.now t.Testbed.sim in
  Faults.crash_server t.Testbed.faults ~reboot_after:0.1 f;
  (* Crash again a hair after the reboot, inside the reconcile RPC. *)
  Faults.at t.Testbed.faults ~server:f ~time:(now +. 0.1001) (fun fp ->
      Faults.crash_server fp ~reboot_after:0.1 f);
  Sim.run t.Testbed.sim ~until:(now +. 3.0);
  check_int "two crashes" 2 (Faults.server_crashes t.Testbed.faults);
  check_int "two incarnations" 2 (Faults.incarnation t.Testbed.faults f);
  check_bool "stale replies were discarded" true
    (Controller.stale_discards t.Testbed.ctl > 0);
  check_bool "second reconciliation still landed" true
    (Fe.serves (fe_service_exn t.Testbed.ctl f) addr);
  check_bool "conservation holds" true (Controller.check_conservation t.Testbed.ctl)

(* ------------------------------------------------------------------ *)
(* Split-brain acceptance: a revived stale primary is provably unable
   to flap placements *)

let test_split_brain_fencing () =
  let t = Testbed.create ~seed:24 () in
  let primary = t.Testbed.ctl in
  let standby =
    Controller.create
      ~config:(Controller.config primary)
      ~fabric:t.Testbed.fabric ~rng:(Rng.split t.Testbed.rng) ()
  in
  let ha = Ha.create ~fabric:t.Testbed.fabric ~primary ~standby in
  Ha.start ha;
  let o = Testbed.offload t () in
  check_bool "registry collected the offload" true
    (Controller.Registry.entries (Ha.registry ha) >= 1);
  let fes0 = Controller.offload_fe_servers o in
  let gaddr = heavy_addr t in
  let gw0 = Gateway.lookup (Fabric.gateway t.Testbed.fabric) gaddr in
  check_bool "route installed" true (gw0 <> None);
  (* Primary dies; the lease expires and the standby takes over with a
     bumped, fleet-broadcast epoch. *)
  Ha.crash_primary ha;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_int "one takeover" 1 (Ha.takeovers ha);
  check_bool "standby is active" true (Ha.active ha == standby);
  check_bool "epoch advanced past the primary's" true
    (Controller.epoch standby > Controller.epoch primary);
  check_int "standby adopted the offload from the registry" 1
    (List.length (Controller.offloads standby));
  let o' = List.hd (Controller.offloads standby) in
  (* The stale primary comes back from the dead and tries to meddle. *)
  Ha.revive_primary ha;
  let victim =
    List.find
      (fun s ->
        s <> t.Testbed.heavy_server
        && (not (List.mem s fes0))
        && Fabric.vswitch_opt t.Testbed.fabric s <> None)
      (Topology.servers (Fabric.topology t.Testbed.fabric))
  in
  check_int "stale scale-out adds nothing" 0 (Controller.scale_out primary o ~add:2);
  (match Controller.migrate_be primary o ~to_server:victim with
  | Ok () -> Alcotest.fail "stale migrate_be must be fenced"
  | Error _ -> ());
  (match Controller.fallback_vnic primary o with
  | Ok () -> Alcotest.fail "stale fallback must be fenced"
  | Error _ -> ());
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
  check_bool "stale commands were fence-rejected" true
    (Controller.fenced_rejected primary >= 3);
  check_bool "components counted the rejections" true
    (Vswitch.epoch_rejections (Fabric.vswitch t.Testbed.fabric t.Testbed.heavy_server)
    > 0);
  check_bool "placement unchanged by the stale primary" true
    (Controller.offload_fe_servers o' = fes0
    && Controller.offload_fe_servers o = fes0);
  check_bool "route unchanged" true
    (Gateway.lookup (Fabric.gateway t.Testbed.fabric) gaddr = gw0);
  check_bool "offload still fully installed" true
    (Controller.check_conservation standby);
  (* The new primary is not fenced: it can still mutate the fleet. *)
  check_bool "new primary can scale out" true (Controller.scale_out standby o' ~add:1 >= 1)

(* ------------------------------------------------------------------ *)
(* Regression: a retransmission must never target an FE that was
   administratively removed from the location config while the send was
   in flight (a decommissioned FE is a guaranteed blackhole). *)

let test_no_retx_against_removed_fe () =
  let t = Testbed.create ~seed:25 () in
  let o = Testbed.offload t ~num_fes:2 () in
  let be = Controller.offload_be o in
  let fes = Controller.offload_fe_servers o in
  check_int "two FEs" 2 (List.length fes);
  (* Cut BE -> FE for both, so no hop ack ever returns. *)
  List.iter
    (fun s ->
      Faults.cut_link t.Testbed.faults ~src:(Faults.Server t.Testbed.heavy_server)
        ~dst:(Faults.Server s))
    fes;
  let flow =
    Five_tuple.make ~src:Testbed.heavy_ip ~dst:t.Testbed.clients.(0).Tcp_crr.ip
      ~src_port:7000 ~dst_port:7001 ~proto:Five_tuple.Udp
  in
  let first = Be.fe_for be flow in
  let topo = Fabric.topology t.Testbed.fabric in
  (* The FE the first retransmission will re-steer to — and which we
     then administratively remove while the send is outstanding. *)
  let second =
    match List.filter (fun s -> not (Ipv4.equal (Topology.underlay_ip topo s) first)) fes with
    | s :: _ -> Topology.underlay_ip topo s
    | [] -> Alcotest.fail "expected a second FE"
  in
  let t0 = Sim.now t.Testbed.sim in
  Vswitch.from_vm t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id
    (Packet.create ~vpc:t.Testbed.vpc ~flow ~direction:Packet.Tx ~payload_len:100 ());
  (* Timeout 1 fires at ~t0+0.02 and re-steers to [second]; remove
     [second] at t0+0.03, before timeout 2 (~t0+0.04). *)
  ignore
    (Sim.schedule t.Testbed.sim ~delay:(t0 +. 0.03 -. Sim.now t.Testbed.sim)
       (fun _ -> Be.remove_fe be second)
      : Sim.handle);
  Sim.run t.Testbed.sim ~until:(t0 +. 1.0);
  let c = Be.counters be in
  check_int "exactly one retransmission (the pre-removal re-steer)" 1
    (counter c.Be.offload_retx);
  check_int "it re-steered" 1 (counter c.Be.offload_resteered);
  check_int "resolved through the local fallback, not a blackhole" 1
    (counter c.Be.local_fallback);
  check_int "nothing dropped" 0 (counter c.Be.offload_dropped);
  check_int "nothing outstanding" 0 (Be.outstanding be);
  check_bool "conservation" true
    (counter c.Be.offload_tracked
    = counter c.Be.offload_acked + counter c.Be.local_fallback
      + counter c.Be.offload_dropped + Be.outstanding be)

(* ------------------------------------------------------------------ *)
(* Anti-entropy: divergence injected behind the controller's back is
   detected by the report-interval sweep and repaired *)

let test_anti_entropy_repairs_divergence () =
  let t = Testbed.create ~seed:26 () in
  let o = Testbed.offload t () in
  let addr = heavy_addr t in
  Controller.start t.Testbed.ctl;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 1.5);
  let f = List.hd (Controller.offload_fe_servers o) in
  let fe = fe_service_exn t.Testbed.ctl f in
  (* Lose the replica without telling anyone. *)
  Fe.unserve fe addr;
  check_bool "diverged: intent no longer installed" true (not (Fe.serves fe addr));
  check_bool "conservation violated by the silent divergence" true
    (not (Controller.check_conservation t.Testbed.ctl));
  let repairs0 = Controller.repairs t.Testbed.ctl in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  check_bool "sweep re-served the replica" true (Fe.serves fe addr);
  check_bool "repair counted" true (Controller.repairs t.Testbed.ctl > repairs0);
  check_bool "conservation restored" true (Controller.check_conservation t.Testbed.ctl)

(* ------------------------------------------------------------------ *)
(* Shard-aware fault plane *)

(* Crash events for a server living on shard 1 must execute on shard
   1's simulation (via the fabric's shard lookup), and its downtime
   must be visible to the fault plane's verdicts. *)
let test_crash_on_remote_shard () =
  let topo = Topology.create ~racks:2 ~servers_per_rack:2 in
  let cluster = Sim.Sharded.create ~shards:2 ~lookahead:0.01 () in
  let sim0 = Sim.Sharded.shard cluster 0 in
  let fabric = Fabric.create ~sim:sim0 ~topology:topo in
  for sid = 0 to 3 do
    ignore
      (Fabric.add_server fabric
         ~sim:(Sim.Sharded.shard cluster (Topology.rack_of topo sid mod 2))
         sid ~params:Params.scaled
        : Vswitch.t)
  done;
  let faults = Faults.create ~sim:sim0 ~topology:topo ~rng:(Rng.create 3) () in
  Fabric.set_faults fabric (Some faults);
  let remote = 2 (* rack 1 -> shard 1 *) in
  Faults.at faults ~server:remote ~time:0.5 (fun f ->
      Faults.crash_server f ~reboot_after:0.4 remote);
  Sim.Sharded.run cluster ~until:0.7;
  check_bool "down mid-window" true (Faults.is_crashed faults remote);
  check_bool "packets to the dead node drop" true
    (Faults.consult faults ~src:(Faults.Server 0) ~dst:(Faults.Server remote)
    = Faults.Drop);
  Sim.Sharded.run cluster ~until:1.2;
  check_bool "rebooted" true (not (Faults.is_crashed faults remote));
  check_int "crash and restart counted" 1 (Faults.server_restarts faults);
  check_bool "healthy node passes" true
    (Faults.consult faults ~src:(Faults.Server 0) ~dst:(Faults.Server remote)
    = Faults.Pass)

(* Differential: the crash-storm region (server crashes + controller
   failover) must produce identical fault timing digests, controller
   decisions and MTTR figures for any shard count. *)
let storm_cfg =
  {
    Region_sim.default_config with
    Region_sim.racks = 30;
    servers_per_rack = 2;
    duration = 8.0;
    tick = 0.05;
    flow_timers = 4;
    seed = 7;
    hotspot_quantile = 0.80;
    spikes_per_day = 4.0;
    ramp_median = 2.0;
    hold = 1.0;
    report_interval = 0.1;
    scan_interval = 0.1;
    crash_rate = 1.0;
    reboot_delay = 0.3;
    resync_delay = 0.05;
    ctl_crash_at = Some 3.0;
    ctl_failover = 0.4;
  }

let test_storm_digest_shard_invariant () =
  let run shards = Region_sim.run { storm_cfg with Region_sim.shards } in
  let r1 = run 1 in
  check_bool "storm actually crashed servers" true (r1.Region_sim.crashes > 0);
  Region_check.equivalent r1 2 (run 2);
  Region_check.equivalent r1 4 (run 4);
  check_int "every crash rebooted" r1.Region_sim.crashes r1.Region_sim.restarts;
  check_bool "the controller acted" true (r1.Region_sim.activations > 0);
  check_int "one controller takeover" 1 r1.Region_sim.ctl_takeovers;
  check_int "no post-convergence blackholes" 0 r1.Region_sim.late_blackholed;
  check_bool "storm blackholed traffic while nodes were down" true
    (r1.Region_sim.blackholed_ticks > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: a vSwitch crashed (volatile state wiped) mid-run is
   observationally equivalent to a freshly provisioned one receiving
   the same post-restart traffic *)

type world = {
  wsim : Sim.t;
  wvs : Vswitch.t;
  wrs : Ruleset.t;
  wnet : int ref;
  wvm : int ref;
}

let vnic_q = Vnic.make ~id:1 ~vpc:(Vpc.make 5) ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 0x1L)

let qworld () =
  let sim = Sim.create () in
  let vs =
    Vswitch.create ~sim
      ~params:{ Params.default with Params.cpu_hz = 1e8; mem_bytes = 8 * 1024 * 1024 }
      ~name:"vsq" ~underlay_ip:(ip "192.168.0.1") ~gateway:(ip "192.168.255.254") ()
  in
  let wnet = ref 0 and wvm = ref 0 in
  Vswitch.set_sink vs
    {
      Vswitch.on_output =
        (function Vswitch.To_net _ -> incr wnet | Vswitch.To_vm _ -> incr wvm);
      on_net_batch =
        (fun b ->
          wnet := !wnet + Pbatch.length b;
          Pbatch.recycle b);
    };
  let rs = Ruleset.create ~vni:5 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs
    { Vnic.Addr.vpc = Vpc.make 5; ip = ip "10.0.0.2" }
    (ip "192.168.0.2");
  (match Vswitch.add_vnic vs vnic_q rs with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "qworld vnic must fit");
  { wsim = sim; wvs = vs; wrs = rs; wnet; wvm }

(* One scripted packet: [(tx, v)] picks direction and flow variant
   (variant 5 on TX is unroutable and must drop). *)
let qsend w (tx, v) =
  let t0 = Sim.now w.wsim in
  (if tx then
     let dst = if v = 5 then "172.16.0.1" else "10.0.0.2" in
     let flow =
       Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip dst) ~src_port:(40000 + v)
         ~dst_port:80 ~proto:Five_tuple.Tcp
     in
     Vswitch.from_vm w.wvs vnic_q.Vnic.id
       (Packet.create ~vpc:(Vpc.make 5) ~flow ~direction:Packet.Tx ~flags:Packet.syn ())
   else begin
     let flow =
       Five_tuple.make ~src:(ip "10.0.0.2") ~dst:(ip "10.0.0.1") ~src_port:(50000 + v)
         ~dst_port:80 ~proto:Five_tuple.Tcp
     in
     let p =
       Packet.create ~vpc:(Vpc.make 5) ~flow ~direction:Packet.Rx ~flags:Packet.syn ()
     in
     Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2") ~outer_dst:(ip "192.168.0.1");
     Vswitch.from_net w.wvs p
   end);
  Sim.run w.wsim ~until:(t0 +. 0.01)

type observation = {
  o_sessions : int;
  o_rx : int;
  o_tx : int;
  o_delivered : int;
  o_forwarded : int;
  o_slow : int;
  o_fast : int;
  o_created : int;
  o_drops : int;
  o_mf_hits : int;
  o_mf_misses : int;
  o_net : int;
  o_vm : int;
}

let observe w ~mf0_hits ~mf0_misses =
  let c = Vswitch.counters w.wvs in
  {
    o_sessions = Vswitch.session_count w.wvs vnic_q.Vnic.id;
    o_rx = counter c.Vswitch.rx_packets;
    o_tx = counter c.Vswitch.tx_packets;
    o_delivered = counter c.Vswitch.delivered;
    o_forwarded = counter c.Vswitch.forwarded;
    o_slow = counter c.Vswitch.slow_path_execs;
    o_fast = counter c.Vswitch.fast_path_hits;
    o_created = counter c.Vswitch.sessions_created;
    o_drops = Vswitch.total_drops w.wvs;
    o_mf_hits = Ruleset.megaflow_hits w.wrs - mf0_hits;
    o_mf_misses = Ruleset.megaflow_misses w.wrs - mf0_misses;
    o_net = !(w.wnet);
    o_vm = !(w.wvm);
  }

let spec_gen =
  QCheck.(
    pair
      (list_of_size Gen.(int_range 1 25) (pair bool (int_range 0 5)))
      (list_of_size Gen.(int_range 1 25) (pair bool (int_range 0 5))))

let qtest_restart_equiv_fresh =
  QCheck.Test.make ~name:"crashed-and-wiped vSwitch == freshly provisioned" ~count:40
    spec_gen (fun (warmup, post) ->
      (* World A: warm up with arbitrary traffic, then crash (volatile
         wipe: sessions, cached flows, counters). *)
      let a = qworld () in
      List.iter (qsend a) warmup;
      Vswitch.wipe_volatile a.wvs;
      a.wnet := 0;
      a.wvm := 0;
      let a_h0 = Ruleset.megaflow_hits a.wrs and a_m0 = Ruleset.megaflow_misses a.wrs in
      (* World B: provisioned fresh, never saw the warmup. *)
      let b = qworld () in
      List.iter (qsend a) post;
      List.iter (qsend b) post;
      observe a ~mf0_hits:a_h0 ~mf0_misses:a_m0
      = observe b ~mf0_hits:0 ~mf0_misses:0)

(* Epoch fence unit semantics, shared by vSwitch and gateway. *)
let test_epoch_fence_semantics () =
  let w = qworld () in
  check_int "boot epoch" 0 (Vswitch.epoch w.wvs);
  check_bool "higher epoch accepted" true (Vswitch.observe_epoch w.wvs ~epoch:3);
  check_bool "equal epoch accepted" true (Vswitch.observe_epoch w.wvs ~epoch:3);
  check_bool "lower epoch rejected" false (Vswitch.observe_epoch w.wvs ~epoch:2);
  check_int "rejections counted" 1 (Vswitch.epoch_rejections w.wvs);
  check_int "high-water mark kept" 3 (Vswitch.epoch w.wvs);
  (* The fence survives a crash: epochs are durable, volatile state is
     not (otherwise a reboot would reopen the split-brain window). *)
  Vswitch.wipe_volatile w.wvs;
  check_bool "stale epoch still rejected after a wipe" false
    (Vswitch.observe_epoch w.wvs ~epoch:2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "recovery"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "FE-host crash reconciles" `Quick
            test_fe_host_crash_reconciles;
          Alcotest.test_case "BE-host crash reinstalls tracker" `Quick
            test_be_host_crash_reinstalls_tracker;
          Alcotest.test_case "stale reconcile reply discarded" `Quick
            test_stale_reconcile_reply_discarded;
        ] );
      ( "split-brain",
        [ Alcotest.test_case "stale primary is fenced" `Quick test_split_brain_fencing ] );
      ( "be-retransmit",
        [
          Alcotest.test_case "no retx against a removed FE" `Quick
            test_no_retx_against_removed_fe;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "sweep repairs silent divergence" `Quick
            test_anti_entropy_repairs_divergence;
        ] );
      ( "sharded-faults",
        [
          Alcotest.test_case "crash lands on the owning shard" `Quick
            test_crash_on_remote_shard;
          Alcotest.test_case "storm digest shard-invariant" `Quick
            test_storm_digest_shard_invariant;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "epoch fence semantics" `Quick test_epoch_fence_semantics;
          QCheck_alcotest.to_alcotest qtest_restart_equiv_fresh;
        ] );
    ]
