(* End-to-end tests for the Nezha core: offload lifecycle, BE/FE
   workflows, stateful NFs across the split, load balancing, failover,
   scale-out and fallback. *)

open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch
open Nezha_fabric
open Nezha_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_detects_crash () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim in
  let alive = ref true in
  let failed = ref [] in
  Monitor.watch m ~key:7 ~alive:(fun () -> !alive) ~on_fail:(fun ~key -> failed := key :: !failed);
  Monitor.start m;
  Sim.run sim ~until:2.0;
  check_bool "healthy so far" true (!failed = []);
  alive := false;
  let crash_time = 2.0 in
  Sim.run sim ~until:10.0;
  ignore crash_time;
  Alcotest.(check (list int)) "declared failed" [ 7 ] !failed;
  check_int "unwatched after failure" 0 (Monitor.watched m);
  check_bool "detection counted" true (Monitor.failures_declared m = 1)

let test_monitor_detection_latency_bounded () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim in
  let alive = ref true in
  let failed_at = ref nan in
  Monitor.watch m ~key:1 ~alive:(fun () -> !alive)
    ~on_fail:(fun ~key:_ -> failed_at := Sim.now sim);
  Monitor.start m;
  ignore (Sim.schedule sim ~delay:1.01 (fun _ -> alive := false) : Sim.handle);
  Sim.run sim ~until:10.0;
  (* Dead at 1.01; misses at 1.5, 2.0, 2.5 -> declared at 2.5. *)
  check_bool "within interval*misses + one interval" true
    (!failed_at > 1.01 && !failed_at <= 1.01 +. 0.5 *. 4.0)

let test_monitor_mass_failure_suspected () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim in
  let failed = ref 0 in
  for k = 1 to 5 do
    Monitor.watch m ~key:k ~alive:(fun () -> false) ~on_fail:(fun ~key:_ -> incr failed)
  done;
  Monitor.start m;
  Sim.run sim ~until:5.5;
  check_int "no automatic removal" 0 !failed;
  check_bool "suspicion recorded" true (Monitor.mass_failure_suspected m > 0)

let test_monitor_recovery_resets_misses () =
  let sim = Sim.create () in
  let m = Monitor.create ~sim in
  let alive = ref true in
  let failed = ref 0 in
  Monitor.watch m ~key:1 ~alive:(fun () -> !alive) ~on_fail:(fun ~key:_ -> incr failed);
  Monitor.start m;
  (* Two misses, then recovery before the third. *)
  ignore (Sim.schedule sim ~delay:0.6 (fun _ -> alive := false) : Sim.handle);
  ignore (Sim.schedule sim ~delay:1.6 (fun _ -> alive := true) : Sim.handle);
  Sim.run sim ~until:6.0;
  check_int "never declared" 0 !failed

let test_monitor_rewatch_mid_round_resets_misses () =
  let sim = Sim.create () in
  (* Probes every 0.5 s, each collected 0.25 s later: probes at 0, 0.5,
     1.0, ... collect at +0.25.  Two targets so the mass-failure check
     (one dead of two = 50% < 80%) cannot mask the behaviour. *)
  let m = Monitor.create ~sim in
  let failed_at = ref nan in
  let failed = ref 0 in
  let watch_dead () =
    Monitor.watch m ~key:1 ~alive:(fun () -> false)
      ~on_fail:(fun ~key:_ ->
        incr failed;
        failed_at := Sim.now sim)
  in
  watch_dead ();
  Monitor.watch m ~key:2 ~alive:(fun () -> true) ~on_fail:(fun ~key:_ -> incr failed);
  Monitor.start m;
  (* Without intervention key 1 misses at 0.25, 0.75 and 1.25 and is
     declared failed at 1.25.  Re-watching at 1.1 — after the 1.0 probe
     launched, before its collect — must discard the in-flight probe of
     the replaced registration and reset the miss counter, not count the
     stale miss against the fresh registration. *)
  ignore (Sim.schedule sim ~delay:1.1 (fun _ -> watch_dead ()) : Sim.handle);
  Sim.run sim ~until:1.3;
  check_int "not declared from a stale in-flight probe" 0 !failed;
  Sim.run sim ~until:6.0;
  check_int "declared exactly once eventually" 1 !failed;
  (* Fresh counter: misses at 1.75, 2.25, 2.75 -> declared at 2.75. *)
  check_bool "declared from a full fresh streak" true
    (!failed_at > 2.5 && !failed_at <= 3.0)

(* ------------------------------------------------------------------ *)
(* Costs *)

let test_costs_table5 () =
  let s = Costs.cost_of Costs.Sailfish and n = Costs.cost_of Costs.Nezha in
  check_bool "sailfish needs devices" true s.Costs.new_devices;
  check_bool "nezha reuses" false n.Costs.new_devices;
  Alcotest.(check (float 1e-9)) "nezha software pm" 15.0 n.Costs.software_dev_pm;
  let ratio = Costs.development_ratio () in
  check_bool "~10% of sailfish effort" true (ratio > 0.05 && ratio < 0.15);
  check_bool "rollout much faster" true
    (Costs.rollout_days Costs.Nezha ~clusters:10 ~parallel:5
    < Costs.rollout_days Costs.Sailfish ~clusters:10 ~parallel:5 /. 10.0)

(* ------------------------------------------------------------------ *)
(* World: 2 racks x 4 servers.  Server 0 hosts the heavy vNIC (id 1,
   10.0.0.1), server 1 the client vNIC (id 2, 10.0.0.2); the rest idle. *)

let vpc = Vpc.make 9

type world = {
  sim : Sim.t;
  fabric : Fabric.t;
  ctl : Controller.t;
  heavy_vs : Vswitch.t;
  client_vs : Vswitch.t;
  heavy_vm : Vm.t;
  client_vm : Vm.t;
  rng : Rng.t;
}

let test_params =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 32 * 1024 * 1024 }

let heavy_addr = { Vnic.Addr.vpc; ip = ip "10.0.0.1" }

let make_world ?(acl_deny_rx = false) ?(stats_on = false) ?(stateful_decap = false)
    ?(config = { Controller.default_config with Controller.auto_offload = false; auto_scale = false })
    () =
  let sim = Sim.create () in
  let rng = Rng.create 42 in
  let topo = Topology.create ~racks:2 ~servers_per_rack:4 in
  let fabric = Fabric.create ~sim ~topology:topo in
  let switches = List.map (fun s -> Fabric.add_server fabric s ~params:test_params) (Topology.servers topo) in
  let heavy_vs = List.nth switches 0 and client_vs = List.nth switches 1 in
  let heavy = Vnic.make ~id:1 ~vpc ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 1L) in
  let client = Vnic.make ~id:2 ~vpc ~ip:(ip "10.0.0.2") ~mac:(Mac.of_int64 2L) in
  let heavy_acl = Acl.create () in
  if acl_deny_rx then Acl.add heavy_acl (Acl.rule ~priority:1 ~dst:(pfx "10.0.0.1/32") Acl.Deny);
  let heavy_rs =
    Ruleset.create ~vni:9 ~acl:heavy_acl
      ?stats_rules:(if stats_on then Some [ (pfx "10.0.0.0/8", { Pre_action.count_packets = true; count_bytes = true }) ] else None)
      ~stateful_decap ()
  in
  Ruleset.add_route heavy_rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping heavy_rs { Vnic.Addr.vpc; ip = ip "10.0.0.2" } (ip "192.168.1.2");
  let client_rs = Ruleset.create ~vni:9 () in
  Ruleset.add_route client_rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping client_rs heavy_addr (ip "192.168.1.1");
  (match (Vswitch.add_vnic heavy_vs heavy heavy_rs, Vswitch.add_vnic client_vs client client_rs) with
  | Ok (), Ok () -> ()
  | _, _ -> Alcotest.fail "vnics must fit");
  let heavy_vm = Vm.create ~sim ~name:"heavy" ~vcpus:16 () in
  let client_vm = Vm.create ~sim ~name:"client" ~vcpus:8 () in
  Fabric.attach_vm fabric 0 heavy.Vnic.id heavy_vm;
  Fabric.attach_vm fabric 1 client.Vnic.id client_vm;
  Gateway.set_route (Fabric.gateway fabric) heavy_addr [| ip "192.168.1.1" |];
  Gateway.set_route (Fabric.gateway fabric)
    { Vnic.Addr.vpc; ip = ip "10.0.0.2" }
    [| ip "192.168.1.2" |];
  let ctl = Controller.create ~config ~fabric ~rng () in
  { sim; fabric; ctl; heavy_vs; client_vs; heavy_vm; client_vm; rng }

let client_syn ?(sport = 40000) () =
  Packet.create ~vpc
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.2") ~dst:(ip "10.0.0.1") ~src_port:sport ~dst_port:80
         ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags:Packet.syn ()

let heavy_tx ?(dport = 40000) ?(flags = Packet.syn) () =
  Packet.create ~vpc
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:80 ~dst_port:dport
         ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags ()

let vnic1 = Vnic.id_of_int 1
let vnic2 = Vnic.id_of_int 2

let do_offload ?(num_fes = 4) w =
  match Controller.offload_vnic w.ctl ~server:0 ~vnic:vnic1 ~num_fes () with
  | Ok o -> o
  | Error e -> Alcotest.fail ("offload failed: " ^ e)

(* ------------------------------------------------------------------ *)
(* Offload lifecycle *)

let test_offload_reaches_final_stage () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  check_int "4 FEs" 4 (List.length (Controller.offload_fe_servers o));
  check_bool "final stage" true (Controller.offload_stage o = Be.Final);
  check_bool "BE rule tables dropped" true (Vswitch.ruleset w.heavy_vs vnic1 = None);
  (match Controller.offload_completed_at o with
  | Some t -> check_bool "completed within seconds" true (t < 3.0)
  | None -> Alcotest.fail "not completed");
  check_int "one completion recorded" 1
    (Stats.Histogram.count (Controller.completion_times_ms w.ctl))

let test_offload_no_candidates () =
  let w = make_world () in
  (* Crash the SmartNIC of every server but the BE's: a crashed NIC is
     never an FE candidate, so none qualifies. *)
  List.iter
    (fun s -> if s <> 0 then Smartnic.crash (Vswitch.nic (Fabric.vswitch w.fabric s)))
    (Topology.servers (Fabric.topology w.fabric));
  match Controller.offload_vnic w.ctl ~server:0 ~vnic:vnic1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected no candidates"

let test_offload_rx_path_via_fe () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  (* Client connects to the offloaded vNIC: path must be client -> FE ->
     BE -> VM. *)
  Vswitch.from_vm w.client_vs vnic2 (client_syn ());
  Sim.run w.sim ~until:6.0;
  check_int "heavy vm received" 1 (Vm.packets_delivered w.heavy_vm);
  let be = Controller.offload_be o in
  check_int "arrived via FE with pre-actions" 1 (Stats.Counter.value (Be.counters be).Be.rx_from_fe);
  let fe_work =
    List.fold_left
      (fun acc s ->
        match Controller.fe_service w.ctl s with
        | Some fe -> acc + Stats.Counter.value (Fe.counters fe).Fe.rx_forwarded
        | None -> acc)
      0
      (Controller.offload_fe_servers o)
  in
  check_int "exactly one FE forwarded it" 1 fe_work

let test_offload_tx_path_via_fe () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  Vswitch.from_vm w.heavy_vs vnic1 (heavy_tx ());
  Sim.run w.sim ~until:6.0;
  check_int "client vm received" 1 (Vm.packets_delivered w.client_vm);
  let be = Controller.offload_be o in
  check_int "tx went via FE" 1 (Stats.Counter.value (Be.counters be).Be.tx_via_fe);
  let finalized =
    List.fold_left
      (fun acc s ->
        match Controller.fe_service w.ctl s with
        | Some fe -> acc + Stats.Counter.value (Fe.counters fe).Fe.tx_finalized
        | None -> acc)
      0
      (Controller.offload_fe_servers o)
  in
  check_int "one FE finalized" 1 finalized

let test_offload_no_interruption_during_transition () =
  let w = make_world () in
  (* Continuous client traffic through the whole offload transition. *)
  let sent = ref 0 in
  let stop_at = 6.0 in
  let rec send sim =
    if Sim.now sim < stop_at then begin
      incr sent;
      Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:(40000 + (!sent mod 1000)) ());
      ignore (Sim.schedule sim ~delay:0.01 send : Sim.handle)
    end
  in
  ignore (Sim.schedule w.sim ~delay:0.0 send : Sim.handle);
  ignore (Sim.schedule w.sim ~delay:1.0 (fun _ -> ignore (do_offload w : Controller.offload)) : Sim.handle);
  Sim.run w.sim ~until:8.0;
  let delivered = Vm.packets_delivered w.heavy_vm in
  check_bool "sent plenty" true (!sent > 400);
  (* At most a handful lost in flight at the switchover instant. *)
  check_bool "no service interruption" true (delivered >= !sent - 3)

let test_bidirectional_session_after_offload () =
  let w = make_world () in
  ignore (do_offload w : Controller.offload);
  Sim.run w.sim ~until:5.0;
  (* Heavy VM answers with syn-ack. *)
  Vm.set_app w.heavy_vm (fun _ pkt ->
      let resp =
        Packet.create ~vpc
          ~flow:(Five_tuple.reverse pkt.Packet.flow)
          ~direction:Packet.Tx ~flags:Packet.syn_ack ()
      in
      Vswitch.from_vm w.heavy_vs vnic1 resp);
  Vswitch.from_vm w.client_vs vnic2 (client_syn ());
  Sim.run w.sim ~until:6.0;
  check_int "request delivered" 1 (Vm.packets_delivered w.heavy_vm);
  check_int "response delivered" 1 (Vm.packets_delivered w.client_vm)

(* ------------------------------------------------------------------ *)
(* Stateful NFs across the BE/FE split *)

let test_stateful_acl_across_split () =
  let w = make_world ~acl_deny_rx:true () in
  ignore (do_offload w : Controller.offload);
  Sim.run w.sim ~until:5.0;
  (* Unsolicited inbound: FE computes pre (rx=deny), BE drops. *)
  Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:50001 ());
  Sim.run w.sim ~until:6.0;
  check_int "unsolicited dropped at BE" 1 (Vswitch.drop_count w.heavy_vs Nf.Unsolicited);
  check_int "nothing delivered" 0 (Vm.packets_delivered w.heavy_vm);
  (* Locally-initiated connection: TX out via FE, then the client's
     response must pass the deny because state says first_dir = Tx. *)
  Vm.set_app w.client_vm (fun _ pkt ->
      let resp =
        Packet.create ~vpc
          ~flow:(Five_tuple.reverse pkt.Packet.flow)
          ~direction:Packet.Tx ~flags:Packet.syn_ack ()
      in
      Vswitch.from_vm w.client_vs vnic2 resp);
  Vswitch.from_vm w.heavy_vs vnic1 (heavy_tx ~dport:40077 ());
  Sim.run w.sim ~until:8.0;
  check_int "response passed the deny" 1 (Vm.packets_delivered w.heavy_vm)

let test_stateful_decap_preserved_across_fe () =
  let w = make_world ~stateful_decap:true () in
  ignore (do_offload w : Controller.offload);
  Sim.run w.sim ~until:5.0;
  Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:50002 ());
  Sim.run w.sim ~until:6.0;
  (* The BE's state must have recorded the original outer source (the
     client's server) even though the FE re-encapsulated the packet. *)
  let key =
    Flow_key.of_packet_fields ~vpc
      ~flow:
        (Five_tuple.make ~src:(ip "10.0.0.2") ~dst:(ip "10.0.0.1") ~src_port:50002 ~dst_port:80
           ~proto:Five_tuple.Tcp)
  in
  match Vswitch.find_session w.heavy_vs vnic1 key with
  | Some { Vswitch.state = Some st; _ } ->
    check_bool "decap src recorded" true
      (match st.State.decap_src with
      | Some a -> Ipv4.equal a (ip "192.168.1.2")
      | None -> false)
  | Some { Vswitch.state = None; _ } | None -> Alcotest.fail "expected BE state"

let test_notify_arms_stats () =
  let w = make_world ~stats_on:true () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  (* TX first packet: BE initializes state without knowing the stats
     policy; the FE's rule lookup discovers it and notifies. *)
  Vswitch.from_vm w.heavy_vs vnic1 (heavy_tx ~dport:40099 ());
  Sim.run w.sim ~until:6.0;
  let be = Controller.offload_be o in
  check_bool "notify received" true (Stats.Counter.value (Be.counters be).Be.notify_received >= 1);
  let key =
    Flow_key.of_packet_fields ~vpc
      ~flow:
        (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:80 ~dst_port:40099
           ~proto:Five_tuple.Tcp)
  in
  (match Vswitch.find_session w.heavy_vs vnic1 key with
  | Some { Vswitch.state = Some st; _ } -> check_bool "stats armed" true (st.State.stats <> None)
  | Some { Vswitch.state = None; _ } | None -> Alcotest.fail "expected BE state");
  (* Second packet of the same flow hits the FE cache: no second notify. *)
  Vswitch.from_vm w.heavy_vs vnic1 (heavy_tx ~dport:40099 ~flags:Packet.ack ());
  Sim.run w.sim ~until:7.0;
  check_int "notify only on fresh lookups" 1 (Stats.Counter.value (Be.counters be).Be.notify_received)

let test_flows_spread_across_fes () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  for i = 0 to 199 do
    Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:(41000 + i) ())
  done;
  Sim.run w.sim ~until:8.0;
  let shares =
    List.map
      (fun s ->
        match Controller.fe_service w.ctl s with
        | Some fe -> Stats.Counter.value (Fe.counters fe).Fe.rx_forwarded
        | None -> 0)
      (Controller.offload_fe_servers o)
  in
  check_int "all arrived" 200 (List.fold_left ( + ) 0 shares);
  List.iter
    (fun n -> check_bool "each FE took a fair share" true (n > 20 && n < 80))
    shares

(* ------------------------------------------------------------------ *)
(* Failover, scale-out, fallback *)

let test_failover_after_fe_crash () =
  let w = make_world () in
  let o = do_offload w in
  Controller.start w.ctl;
  Sim.run w.sim ~until:5.0;
  let fes_before = Controller.offload_fe_servers o in
  check_int "4 before" 4 (List.length fes_before);
  let victim = List.hd fes_before in
  Smartnic.crash (Vswitch.nic (Fabric.vswitch w.fabric victim));
  Sim.run w.sim ~until:12.0;
  let fes_after = Controller.offload_fe_servers o in
  check_bool "victim removed" true (not (List.mem victim fes_after));
  check_int "replenished to min 4" 4 (List.length fes_after);
  (* Traffic still flows. *)
  Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:45000 ());
  Sim.run w.sim ~until:13.0;
  check_bool "traffic flows after failover" true (Vm.packets_delivered w.heavy_vm >= 1)

let test_scale_out_adds_fes () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  let added = Controller.scale_out w.ctl o ~add:2 in
  check_int "two added" 2 added;
  Sim.run w.sim ~until:8.0;
  check_int "six FEs now" 6 (List.length (Controller.offload_fe_servers o));
  check_bool "scale-out event counted" true (Controller.scale_out_events w.ctl = 1)

let test_fallback_restores_local () =
  let w = make_world () in
  let o = do_offload w in
  Sim.run w.sim ~until:5.0;
  check_bool "offloaded" true (Vswitch.ruleset w.heavy_vs vnic1 = None);
  (match Controller.fallback_vnic w.ctl o with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fallback failed: " ^ e));
  Sim.run w.sim ~until:10.0;
  check_bool "rule tables back" true (Vswitch.ruleset w.heavy_vs vnic1 <> None);
  check_int "no active offloads" 0 (List.length (Controller.offloads w.ctl));
  (* Local processing works again end-to-end. *)
  Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:46000 ());
  Sim.run w.sim ~until:11.0;
  check_int "delivered locally" 1 (Vm.packets_delivered w.heavy_vm);
  let fe_rx =
    List.fold_left
      (fun acc s ->
        match Controller.fe_service w.ctl s with Some fe -> acc + Stats.Counter.value (Fe.counters fe).Fe.rx_forwarded | None -> acc)
      0
      (Topology.servers (Fabric.topology w.fabric))
  in
  check_int "FEs out of the path" 0 fe_rx

let test_auto_offload_triggers_under_load () =
  let config =
    {
      Controller.default_config with
      Controller.auto_offload = true;
      auto_scale = false;
      report_interval = 0.5;
    }
  in
  let w = make_world ~config () in
  Controller.start w.ctl;
  (* Hammer the heavy vNIC with fresh connections so its vSwitch CPU
     saturates: each SYN costs a slow path (~51k cycles at 1e8 Hz). *)
  let rec send i sim =
    if Sim.now sim < 10.0 then begin
      Vswitch.from_vm w.client_vs vnic2 (client_syn ~sport:(40000 + (i mod 20000)) ());
      ignore (Sim.schedule sim ~delay:0.0005 (send (i + 1)) : Sim.handle)
    end
  in
  ignore (Sim.schedule w.sim ~delay:0.0 (send 0) : Sim.handle);
  Sim.run w.sim ~until:12.0;
  check_bool "offload triggered automatically" true (Controller.offload_events w.ctl >= 1);
  match Controller.find_offload w.ctl ~server:0 ~vnic:vnic1 with
  | Some o -> check_bool "heavy vnic offloaded" true (Controller.offload_fe_servers o <> [])
  | None -> Alcotest.fail "expected the heavy vNIC to be offloaded"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nezha"
    [
      ( "monitor",
        [
          Alcotest.test_case "detects crash" `Quick test_monitor_detects_crash;
          Alcotest.test_case "latency bounded" `Quick test_monitor_detection_latency_bounded;
          Alcotest.test_case "mass failure suspected" `Quick test_monitor_mass_failure_suspected;
          Alcotest.test_case "recovery resets misses" `Quick test_monitor_recovery_resets_misses;
          Alcotest.test_case "re-watch mid-round resets misses" `Quick
            test_monitor_rewatch_mid_round_resets_misses;
        ] );
      ("costs", [ Alcotest.test_case "table 5 model" `Quick test_costs_table5 ]);
      ( "offload",
        [
          Alcotest.test_case "reaches final stage" `Quick test_offload_reaches_final_stage;
          Alcotest.test_case "no candidates" `Quick test_offload_no_candidates;
          Alcotest.test_case "rx path via FE" `Quick test_offload_rx_path_via_fe;
          Alcotest.test_case "tx path via FE" `Quick test_offload_tx_path_via_fe;
          Alcotest.test_case "no interruption during transition" `Quick
            test_offload_no_interruption_during_transition;
          Alcotest.test_case "bidirectional session" `Quick test_bidirectional_session_after_offload;
        ] );
      ( "stateful",
        [
          Alcotest.test_case "stateful acl across split" `Quick test_stateful_acl_across_split;
          Alcotest.test_case "stateful decap preserved" `Quick test_stateful_decap_preserved_across_fe;
          Alcotest.test_case "notify arms stats" `Quick test_notify_arms_stats;
          Alcotest.test_case "flows spread across FEs" `Quick test_flows_spread_across_fes;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "failover after FE crash" `Quick test_failover_after_fe_crash;
          Alcotest.test_case "scale-out adds FEs" `Quick test_scale_out_adds_fes;
          Alcotest.test_case "fallback restores local" `Quick test_fallback_restores_local;
          Alcotest.test_case "auto offload under load" `Quick test_auto_offload_triggers_under_load;
        ] );
    ]
