(* Tests for the fault-injection plane and the loss-recovery machinery it
   exercises: per-reason fabric drops, BE hop tracking (ack, re-steer,
   local fallback), §C.2 mass-failure suppression under a rack partition,
   and whole-run determinism. *)

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

(* ------------------------------------------------------------------ *)
(* Faults: the plane itself *)

let mk_faults ?(racks = 3) ?(servers_per_rack = 2) ?(seed = 7) () =
  let sim = Sim.create () in
  let topo = Topology.create ~racks ~servers_per_rack in
  (sim, topo, Faults.create ~sim ~topology:topo ~rng:(Rng.create seed) ())

let test_consult_stream_deterministic () =
  let stream () =
    let _, _, f = mk_faults () in
    Faults.set_default f (Faults.impair ~loss:0.3 ~dup:0.2 ~reorder:0.2 ());
    List.init 500 (fun i ->
        Faults.consult f ~src:(Faults.Server (i mod 6)) ~dst:(Faults.Server ((i + 1) mod 6)))
  in
  let a = stream () and b = stream () in
  check_bool "same seed, same verdicts" true (a = b);
  check_bool "some were drops" true (List.mem Faults.Drop a);
  check_bool "some passed" true (List.mem Faults.Pass a)

let test_perfect_plane_draws_nothing () =
  let _, _, f = mk_faults () in
  for i = 0 to 99 do
    match Faults.consult f ~src:(Faults.Server (i mod 6)) ~dst:Faults.Gateway with
    | Faults.Pass -> ()
    | _ -> Alcotest.fail "perfect plane must pass everything"
  done;
  check_int "no injected drops" 0 (Faults.drops_injected f);
  check_int "100 consults" 100 (Faults.consults f)

let test_impair_rejects_non_probabilities () =
  Alcotest.check_raises "negative loss"
    (Invalid_argument "Faults.impair: loss must be a probability in [0, 1]") (fun () ->
      ignore (Faults.impair ~loss:(-0.1) () : Faults.impairment));
  Alcotest.check_raises "dup above 1"
    (Invalid_argument "Faults.impair: dup must be a probability in [0, 1]") (fun () ->
      ignore (Faults.impair ~dup:1.5 () : Faults.impairment));
  check_bool "loss 1 is a probability" true ((Faults.impair ~loss:1.0 ()).Faults.loss = 1.0)

let test_partition_semantics () =
  let _, _, f = mk_faults () in
  let s i = Faults.Server i in
  (* Directional link cut. *)
  Faults.cut_link f ~src:(s 0) ~dst:(s 1);
  check_bool "cut direction drops" true (Faults.consult f ~src:(s 0) ~dst:(s 1) = Faults.Drop);
  check_bool "reverse direction passes" true (Faults.consult f ~src:(s 1) ~dst:(s 0) = Faults.Pass);
  Faults.heal_link f ~src:(s 0) ~dst:(s 1);
  check_bool "healed link passes" true (Faults.consult f ~src:(s 0) ~dst:(s 1) = Faults.Pass);
  (* Server isolation is bidirectional and covers the gateway. *)
  Faults.cut_server f 2;
  check_bool "to cut server" true (Faults.consult f ~src:(s 0) ~dst:(s 2) = Faults.Drop);
  check_bool "from cut server" true (Faults.consult f ~src:(s 2) ~dst:(s 0) = Faults.Drop);
  check_bool "gateway to cut server" true
    (Faults.consult f ~src:Faults.Gateway ~dst:(s 2) = Faults.Drop);
  Faults.heal_server f 2;
  check_bool "healed server passes" true (Faults.consult f ~src:(s 0) ~dst:(s 2) = Faults.Pass);
  (* Rack isolation: boundary hops drop, intra-rack survives. *)
  Faults.cut_rack f ~rack:1;
  check_bool "intra-rack survives" true (Faults.consult f ~src:(s 2) ~dst:(s 3) = Faults.Pass);
  check_bool "into the rack drops" true (Faults.consult f ~src:(s 0) ~dst:(s 2) = Faults.Drop);
  check_bool "rack to gateway drops" true
    (Faults.consult f ~src:(s 3) ~dst:Faults.Gateway = Faults.Drop);
  check_bool "partitioned view agrees" true (Faults.partitioned f ~src:(s 0) ~dst:(s 2));
  (* Two different cut racks cannot talk either. *)
  Faults.cut_rack f ~rack:0;
  check_bool "cut rack to cut rack drops" true
    (Faults.consult f ~src:(s 0) ~dst:(s 2) = Faults.Drop);
  check_bool "intra rack 0 survives" true (Faults.consult f ~src:(s 0) ~dst:(s 1) = Faults.Pass);
  Faults.heal_rack f ~rack:0;
  Faults.heal_rack f ~rack:1;
  check_bool "all healed" true (Faults.consult f ~src:(s 0) ~dst:(s 2) = Faults.Pass);
  check_bool "partition drops counted" true (Faults.partition_drops f > 0);
  check_int "no probabilistic drops" 0 (Faults.drops_injected f)

(* ------------------------------------------------------------------ *)
(* Fabric integration: per-reason accounting and the probe path *)

let mk_fabric () =
  let sim = Sim.create () in
  let topo = Topology.create ~racks:2 ~servers_per_rack:2 in
  let fabric = Fabric.create ~sim ~topology:topo in
  ignore (Fabric.add_server fabric 0 ~params:Params.scaled : Vswitch.t);
  ignore (Fabric.add_server fabric 1 ~params:Params.scaled : Vswitch.t);
  let faults = Faults.create ~sim ~topology:topo ~rng:(Rng.create 5) () in
  Fabric.set_faults fabric (Some faults);
  (sim, topo, fabric, faults)

let vxlan_pkt topo ~dst =
  let flow =
    Five_tuple.make ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:1234 ~dst_port:80 ~proto:Five_tuple.Udp
  in
  let pkt = Packet.create ~vpc:(Vpc.make 9) ~flow ~direction:Packet.Tx ~payload_len:64 () in
  Packet.encap_vxlan pkt ~vni:9 ~outer_src:(Topology.underlay_ip topo 0) ~outer_dst:dst;
  pkt

let test_fabric_per_reason_drops () =
  let sim, topo, fabric, faults = mk_fabric () in
  (* Probabilistic loss. *)
  Faults.set_default faults (Faults.impair ~loss:1.0 ());
  Fabric.deliver_to_server fabric ~src:0 (vxlan_pkt topo ~dst:(Topology.underlay_ip topo 1));
  Sim.run sim ~until:0.1;
  check_int "fault-injected loss counted" 1 (Fabric.lost_by fabric Fabric.Fault_injected);
  check_int "probabilistic drop counted" 1 (Faults.drops_injected faults);
  (* Partition drop lands in the same fabric reason, separate fault
     counter. *)
  Faults.set_default faults Faults.perfect;
  Faults.cut_server faults 1;
  Fabric.deliver_to_server fabric ~src:0 (vxlan_pkt topo ~dst:(Topology.underlay_ip topo 1));
  Sim.run sim ~until:0.2;
  check_int "partition loss counted" 2 (Fabric.lost_by fabric Fabric.Fault_injected);
  check_int "partition drop counted" 1 (Faults.partition_drops faults);
  Faults.heal_server faults 1;
  (* Wiring reasons are distinct. *)
  Fabric.deliver_to_server fabric ~src:0 (vxlan_pkt topo ~dst:(Ipv4.of_octets 99 9 9 9));
  Sim.run sim ~until:0.3;
  check_int "unknown server counted" 1 (Fabric.lost_by fabric Fabric.No_such_server);
  let flow =
    Five_tuple.make ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 10 0 0 2)
      ~src_port:1 ~dst_port:2 ~proto:Five_tuple.Udp
  in
  Fabric.deliver_to_server fabric ~src:0
    (Packet.create ~vpc:(Vpc.make 9) ~flow ~direction:Packet.Tx ());
  Sim.run sim ~until:0.4;
  check_int "missing vxlan counted" 1 (Fabric.lost_by fabric Fabric.No_vxlan);
  check_int "total is the sum" (Fabric.lost_by fabric Fabric.Fault_injected + 2)
    (Fabric.lost fabric)

(* One burst through [deliver_batch_to_server] against the same packets
   one by one through [deliver_to_server], with the server 0 -> 1 link
   impaired by loss, jitter and duplication.  The burst holds a
   gateway-bound packet, an unknown-server packet and packets that draw
   every verdict, the first drop while the open run is still a prefix
   of the burst.  The arrivals at server 1's vSwitch (time and packet,
   in order), the per-reason losses and the tap's order must agree, and
   every batch taken from the arena must come back. *)
let test_fabric_burst_equals_singles () =
  let reasons = Fabric.[ No_vxlan; No_such_server; No_vswitch; Fault_injected ] in
  let run burst =
    let sim, topo, fabric, faults = mk_fabric () in
    Faults.set_link faults ~src:(Faults.Server 0) ~dst:(Faults.Server 1)
      (Faults.impair ~loss:0.3 ~dup:0.3 ~reorder:0.5 ());
    let detour = Ipv4.of_octets 10 0 0 7 in
    Gateway.set_route (Fabric.gateway fabric)
      { Vnic.Addr.vpc = Vpc.make 9; ip = detour }
      [| Topology.underlay_ip topo 1 |];
    let port pkt = pkt.Packet.flow.Five_tuple.src_port in
    let arrivals = ref [] and tapped = ref [] in
    Vswitch.set_net_hook (Fabric.vswitch fabric 1)
      (Some
         (fun pkt ~outer:_ ->
           arrivals := (Sim.now sim, port pkt) :: !arrivals;
           `Handled));
    Fabric.set_tap fabric (Some (fun ~time pkt -> tapped := (time, port pkt) :: !tapped));
    let pkt i =
      let dst, outer_dst =
        match i with
        | 14 -> (detour, Topology.gateway_ip topo)
        | 17 -> (Ipv4.of_octets 10 0 0 2, Ipv4.of_octets 99 9 9 9)
        | _ -> (Ipv4.of_octets 10 0 0 2, Topology.underlay_ip topo 1)
      in
      let flow =
        Five_tuple.make ~src:(Ipv4.of_octets 10 0 0 1) ~dst ~src_port:(1000 + i) ~dst_port:80
          ~proto:Five_tuple.Udp
      in
      let p = Packet.create ~vpc:(Vpc.make 9) ~flow ~direction:Packet.Tx ~payload_len:64 () in
      Packet.encap_vxlan p ~vni:9 ~outer_src:(Topology.underlay_ip topo 0) ~outer_dst;
      p
    in
    let pkts = List.init 24 pkt in
    let taken0, reused0, recycled0 = Pbatch.pool_stats () in
    (if burst then begin
       let b = Pbatch.alloc () in
       List.iter (Pbatch.push b) pkts;
       Fabric.deliver_batch_to_server fabric ~src:0 b
     end
     else List.iter (Fabric.deliver_to_server fabric ~src:0) pkts);
    Sim.run sim ~until:1.0;
    let taken1, reused1, recycled1 = Pbatch.pool_stats () in
    ( List.rev !arrivals,
      List.rev !tapped,
      List.map (Fabric.lost_by fabric) reasons,
      (Faults.drops_injected faults, Faults.reorders_injected faults, Faults.dups_injected faults),
      taken1 - taken0 + (reused1 - reused0) - (recycled1 - recycled0) )
  in
  let arrivals, tapped, lost, (drops, delays, dups), outstanding = run false in
  let burst = run true in
  check_bool "the draws include a drop, a delay and a duplicate" true
    (drops > 0 && delays > 0 && dups > 0);
  check_bool "the gateway-bound packet arrives" true (List.exists (fun (_, p) -> p = 1014) arrivals);
  check_int "the unknown server is a loss" 1 (List.nth lost 1);
  check_int "every packet is tapped" 24 (List.length tapped);
  check_int "singles: no batch outstanding" 0 outstanding;
  let b_arrivals, b_tapped, b_lost, b_draws, b_outstanding = burst in
  check_bool "same arrivals, times and order" true (b_arrivals = arrivals);
  check_bool "same losses per reason" true (b_lost = lost);
  check_bool "same draws" true (b_draws = (drops, delays, dups));
  check_bool "same tap order" true (b_tapped = tapped);
  check_int "burst: no batch outstanding" 0 b_outstanding

let test_ping_respects_partitions () =
  let sim, _, fabric, faults = mk_fabric () in
  let got = ref 0 in
  Fabric.ping fabric ~dst:1 ~reply:(fun () -> incr got);
  Sim.run sim ~until:0.1;
  check_int "healthy probe replies" 1 !got;
  Faults.cut_server faults 1;
  Fabric.ping fabric ~dst:1 ~reply:(fun () -> incr got);
  Sim.run sim ~until:0.2;
  check_int "partitioned probe is silent" 1 !got;
  Faults.heal_server faults 1;
  Fabric.ping fabric ~dst:1 ~reply:(fun () -> incr got);
  Sim.run sim ~until:0.3;
  check_int "healed probe replies" 2 !got;
  (* A crashed SmartNIC also eats probes (node dead, network fine). *)
  Smartnic.crash (Vswitch.nic (Fabric.vswitch fabric 1));
  Fabric.ping fabric ~dst:1 ~reply:(fun () -> incr got);
  Sim.run sim ~until:0.4;
  check_int "crashed node is silent" 2 !got

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_faults_telemetry_registered () =
  let _, _, fabric, faults = mk_fabric () in
  ignore faults;
  let reg = Nezha_telemetry.Telemetry.create () in
  Fabric.register_telemetry fabric reg;
  let dump = Nezha_telemetry.Telemetry.dump_json_string reg in
  check_bool "faults counters exported" true (contains ~sub:"fabric/faults/drops_injected" dump);
  check_bool "partition counter exported" true
    (contains ~sub:"fabric/faults/partition_drops" dump)

(* ------------------------------------------------------------------ *)
(* BE hop recovery *)

let test_be_ack_path_clean_network () =
  let t = Testbed.create ~seed:11 () in
  let o = Testbed.offload t () in
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:2.0 () : Tcp_crr.t);
  let c = Be.counters (Controller.offload_be o) in
  let tracked = counter c.Be.offload_tracked in
  check_bool "offloads were tracked" true (tracked > 0);
  check_int "every send acked" tracked (counter c.Be.offload_acked);
  check_int "nothing outstanding" 0 (Be.outstanding (Controller.offload_be o));
  check_int "no timeouts on a clean network" 0 (counter c.Be.offload_timeouts);
  let acks_sent =
    List.fold_left
      (fun acc s ->
        match Controller.fe_service t.Testbed.ctl s with
        | Some fe -> acc + counter (Fe.counters fe).Fe.hop_acks_sent
        | None -> acc)
      0
      (Controller.offload_fe_servers o)
  in
  check_bool "FEs sent the acks" true (acks_sent >= tracked)

let conservation_holds c be =
  counter c.Be.offload_tracked
  = counter c.Be.offload_acked + counter c.Be.local_fallback + counter c.Be.offload_dropped
    + Be.outstanding be

let test_be_resteer_around_cut_fe () =
  let t = Testbed.create ~seed:12 () in
  let o = Testbed.offload t () in
  (* No Controller.start: the monitor must not rescue us — this isolates
     the data-plane recovery.  Cut only the BE→FE direction: client→FE
     uses the same flow hash, so cutting the whole server would keep the
     affected flows from ever reaching the BE. *)
  (match Controller.offload_fe_servers o with
  | s :: _ ->
    Faults.cut_link t.Testbed.faults
      ~src:(Faults.Server t.Testbed.heavy_server) ~dst:(Faults.Server s)
  | [] -> Alcotest.fail "no FEs");
  let crr =
    Tcp_crr.start_closed ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
      ~client:t.Testbed.clients.(0) ~server:t.Testbed.server ~concurrency:16 ~duration:4.0
      ~conn_timeout:0.5 ~retransmit:true ()
  in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 6.0);
  let be = Controller.offload_be o in
  let c = Be.counters be in
  check_bool "timeouts fired" true (counter c.Be.offload_timeouts > 0);
  check_bool "retransmissions re-steered" true (counter c.Be.offload_resteered > 0);
  check_bool "traffic still completes" true (Tcp_crr.completed crr > 0);
  check_bool "conservation invariant" true (conservation_holds c be)

let test_be_local_fallback_when_all_fes_cut () =
  let t = Testbed.create ~seed:13 () in
  let o = Testbed.offload t () in
  List.iter (fun s -> Faults.cut_server t.Testbed.faults s) (Controller.offload_fe_servers o);
  (* Outbound traffic from the heavy VM: every FE hop will time out; the
     BE must degrade to its fallback tables, not blackhole. *)
  let received = ref 0 in
  Vm.set_app t.Testbed.clients.(0).Tcp_crr.vm (fun _ _ -> incr received);
  let flow =
    Five_tuple.make ~src:Testbed.heavy_ip ~dst:t.Testbed.clients.(0).Tcp_crr.ip ~src_port:7000
      ~dst_port:7001 ~proto:Five_tuple.Udp
  in
  let n = 60 in
  let rec send i sim =
    if i < n then begin
      Vswitch.from_vm t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id
        (Packet.create ~vpc:t.Testbed.vpc ~flow ~direction:Packet.Tx ~payload_len:100 ());
      ignore (Sim.schedule sim ~delay:0.01 (send (i + 1)) : Sim.handle)
    end
  in
  ignore (Sim.schedule t.Testbed.sim ~delay:0.0 (send 0) : Sim.handle);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let be = Controller.offload_be o in
  let c = Be.counters be in
  check_bool "tracked sends gave up into the local path" true (counter c.Be.local_fallback > 0);
  check_bool "later sends bypassed the hop entirely" true (counter c.Be.local_bypass > 0);
  check_int "nothing blackholed" 0 (counter c.Be.offload_dropped);
  check_int "nothing outstanding" 0 (Be.outstanding be);
  check_bool "conservation invariant" true (conservation_holds c be);
  check_bool "most packets still reached the peer VM" true (!received >= n - 5)

(* ------------------------------------------------------------------ *)
(* §C.2: a rack partition downing most watched FEs must suppress
   automatic removal; healing resumes ordinary detection. *)

let test_mass_failure_suppression_under_rack_partition () =
  let t = Testbed.create ~seed:14 () in
  (* Force the FE pool into rack 2 so one rack cut downs every FE. *)
  List.iter
    (fun s ->
      if Topology.rack_of (Fabric.topology t.Testbed.fabric) s = 2 then
        Vswitch.set_software_version (Fabric.vswitch t.Testbed.fabric s) 7)
    (Topology.servers (Fabric.topology t.Testbed.fabric));
  let o =
    match
      Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
        ~vnic:Testbed.heavy_vnic_id ~version_filter:(fun v -> v = 7) ()
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 5.0);
  let fes_before = Controller.offload_fe_servers o in
  check_int "four FEs placed" 4 (List.length fes_before);
  Controller.start t.Testbed.ctl;
  let mon = Controller.monitor t.Testbed.ctl in
  Faults.cut_rack t.Testbed.faults ~rack:2;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 4.0);
  check_bool "mass failure suspected" true (Monitor.mass_failure_suspected mon > 0);
  check_int "no FE removed while suspected" (List.length fes_before)
    (List.length (Controller.offload_fe_servers o));
  check_int "no failure declared" 0 (Monitor.failures_declared mon);
  check_bool "misses were observed" true (Monitor.probes_missed mon > 0);
  (* Heal; detection of a genuinely dead FE must then work again. *)
  Faults.heal_rack t.Testbed.faults ~rack:2;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
  let victim = List.hd (Controller.offload_fe_servers o) in
  Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric victim));
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 4.0);
  check_bool "single failure declared after healing" true (Monitor.failures_declared mon >= 1);
  check_bool "victim removed from the location config" true
    (not (List.mem victim (Controller.offload_fe_servers o)))

(* ------------------------------------------------------------------ *)
(* Determinism: identical seeds must give byte-identical telemetry *)

let chaos_like_run () =
  let t = Testbed.create ~seed:42 () in
  let o = Testbed.offload t () in
  let t0 = Sim.now t.Testbed.sim in
  Faults.set_default t.Testbed.faults (Faults.impair ~loss:0.005 ());
  Faults.at t.Testbed.faults ~time:(t0 +. 1.0) (fun f ->
      match Controller.offload_fe_servers o with
      | s :: _ -> Faults.cut_server f s
      | [] -> ());
  Faults.at t.Testbed.faults ~time:(t0 +. 2.0) (fun f ->
      match Controller.offload_fe_servers o with
      | s :: _ -> Faults.heal_server f s
      | [] -> ());
  ignore (Testbed.run_crr t ~rate:150.0 ~duration:3.0 () : Tcp_crr.t);
  Nezha_telemetry.Telemetry.dump_json_string ~at:(Sim.now t.Testbed.sim) t.Testbed.telemetry

let test_same_seed_identical_telemetry () =
  let a = chaos_like_run () in
  let b = chaos_like_run () in
  check_bool "byte-identical telemetry dumps" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* Fig. 14 on a lossy underlay: crash surge bounded and recovered *)

let test_fig14_under_underlay_loss () =
  let samples = Experiments.fig14 ~seed:1 ~underlay_loss:0.01 () in
  check_bool "samples collected" true (List.length samples > 40);
  (* The crash at t=4 must be healed within the detection bound
     (interval x misses + probe_timeout + routing update ≈ 2 s): from
     t=7 on, loss sits near the 1% underlay floor again. *)
  let tail = List.filter (fun (t, _) -> t >= 7.0) samples in
  let worst_tail = List.fold_left (fun acc (_, l) -> Float.max acc l) 0.0 tail in
  check_bool "loss recovered to the underlay floor" true (worst_tail <= 0.06);
  let mean_tail =
    List.fold_left (fun acc (_, l) -> acc +. l) 0.0 tail /. float_of_int (List.length tail)
  in
  check_bool "tail mean near 1%" true (mean_tail <= 0.03)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "plane",
        [
          Alcotest.test_case "consult stream deterministic" `Quick
            test_consult_stream_deterministic;
          Alcotest.test_case "perfect plane draws nothing" `Quick
            test_perfect_plane_draws_nothing;
          Alcotest.test_case "impair rejects non-probabilities" `Quick
            test_impair_rejects_non_probabilities;
          Alcotest.test_case "partition semantics" `Quick test_partition_semantics;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "per-reason drops" `Quick test_fabric_per_reason_drops;
          Alcotest.test_case "ping respects partitions" `Quick test_ping_respects_partitions;
          Alcotest.test_case "burst equals singles under faults" `Quick
            test_fabric_burst_equals_singles;
          Alcotest.test_case "faults telemetry registered" `Quick
            test_faults_telemetry_registered;
        ] );
      ( "be-recovery",
        [
          Alcotest.test_case "ack path on a clean network" `Quick
            test_be_ack_path_clean_network;
          Alcotest.test_case "re-steer around a cut FE" `Quick test_be_resteer_around_cut_fe;
          Alcotest.test_case "local fallback when all FEs cut" `Quick
            test_be_local_fallback_when_all_fes_cut;
        ] );
      ( "mass-failure",
        [
          Alcotest.test_case "rack partition suppresses removal" `Quick
            test_mass_failure_suppression_under_rack_partition;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical telemetry" `Slow
            test_same_seed_identical_telemetry;
        ] );
      ( "fig14-lossy",
        [
          Alcotest.test_case "crash recovery under 1% loss" `Slow
            test_fig14_under_underlay_loss;
        ] );
    ]
