(* Tests for topology, VM kernel model, gateway and the delivery engine. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topo_shape () =
  let topo = Topology.create ~racks:3 ~servers_per_rack:4 in
  check_int "12 servers" 12 (Topology.server_count topo);
  check_int "rack of 0" 0 (Topology.rack_of topo 0);
  check_int "rack of 11" 2 (Topology.rack_of topo 11);
  Alcotest.(check (list int)) "rack 1 members" [ 4; 5; 6; 7 ] (Topology.servers_in_rack topo 1);
  check_bool "same rack" true (Topology.same_rack topo 4 7);
  check_bool "cross rack" false (Topology.same_rack topo 3 4)

let test_topo_addressing_roundtrip () =
  let topo = Topology.create ~racks:5 ~servers_per_rack:10 in
  List.iter
    (fun sid ->
      let addr = Topology.underlay_ip topo sid in
      check_bool "roundtrip" true (Topology.server_of_ip topo addr = Some sid))
    (Topology.servers topo);
  check_bool "gateway not a server" true
    (Topology.server_of_ip topo (Topology.gateway_ip topo) = None);
  check_bool "foreign ip" true (Topology.server_of_ip topo (ip "10.0.0.1") = None)

let test_topo_latency_ordering () =
  let topo = Topology.create ~racks:2 ~servers_per_rack:2 in
  let same = Topology.latency topo 0 0 in
  let rack = Topology.latency topo 0 1 in
  let cross = Topology.latency topo 0 2 in
  check_bool "same < rack < cross" true (same < rack && rack < cross);
  check_bool "tens of us" true (cross < 100e-6)

let test_topo_invalid () =
  Alcotest.check_raises "zero racks"
    (Invalid_argument "Topology.create: dimensions must be positive") (fun () ->
      ignore (Topology.create ~racks:0 ~servers_per_rack:1 : Topology.t))

(* ------------------------------------------------------------------ *)
(* Vm *)

let test_vm_saturating_capacity () =
  let sim = Sim.create () in
  let mk v = Vm.create ~sim ~name:"vm" ~vcpus:v () in
  let c8 = Vm.max_cps (mk 8) and c16 = Vm.max_cps (mk 16) and c64 = Vm.max_cps (mk 64) in
  check_bool "more cores help" true (c16 > c8 && c64 > c16);
  (* ... but sublinearly: doubling 8->16 must yield well under 2x. *)
  check_bool "saturating" true (c16 /. c8 < 1.8);
  check_bool "heavily saturating at 64" true (c64 /. c8 < 3.0)

let syn_packet i =
  Packet.create ~vpc:(Vpc.make 1)
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.2") ~dst:(ip "10.0.0.1") ~src_port:(1024 + i)
         ~dst_port:80 ~proto:Five_tuple.Tcp)
    ~direction:Packet.Rx ~flags:Packet.syn ()

let test_vm_deliveries_promote_little () =
  (* As for the SmartNIC: a long-lived VM taking one packet per
     millisecond, with a minor collection between deliveries.  Boxed
     busy-time floats would be 4 words per delivery. *)
  let sim = Sim.create () in
  let vm = Vm.create ~sim ~name:"vm" ~vcpus:8 () in
  let pkt = syn_packet 0 in
  Sim.every sim ~period:0.001 (fun _ ->
      Gc.minor ();
      Vm.deliver vm pkt;
      true);
  Sim.run sim ~until:0.1;
  let d0 = Vm.packets_delivered vm and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Sim.run sim ~until:2.1;
  let n = Vm.packets_delivered vm - d0 in
  let per_delivery = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n in
  check_bool "delivered every packet" true (n >= 1990);
  check_bool
    (Printf.sprintf "%.2f promoted words per delivery <= 1" per_delivery)
    true (per_delivery <= 1.0)

let test_vm_processes_and_counts () =
  let sim = Sim.create () in
  let vm = Vm.create ~sim ~name:"vm" ~vcpus:8 () in
  let seen = ref 0 in
  Vm.set_app vm (fun _ _ -> incr seen);
  for i = 0 to 9 do
    Vm.deliver vm (syn_packet i)
  done;
  Sim.run sim;
  check_int "app saw all" 10 !seen;
  check_int "accepted" 10 (Vm.connections_accepted vm);
  check_int "no drops" 0 (Vm.packets_dropped vm)

let test_vm_backlog_overflow () =
  let sim = Sim.create () in
  let kernel = { Vm.default_kernel with Vm.backlog = 5; per_core_hz = 1e6 } in
  let vm = Vm.create ~sim ~name:"vm" ~vcpus:1 ~kernel () in
  for i = 0 to 19 do
    Vm.deliver vm (syn_packet i)
  done;
  check_int "overflow drops" 15 (Vm.packets_dropped vm);
  Sim.run sim;
  check_int "admitted completed" 5 (Vm.packets_delivered vm)

let test_vm_utilization () =
  let sim = Sim.create () in
  let kernel = { Vm.default_kernel with Vm.per_core_hz = 1e6; connection_cycles = 100_000 } in
  let vm = Vm.create ~sim ~name:"vm" ~vcpus:1 ~kernel () in
  (* ~0.108 s of kernel work (8k + 100k cycles at 1 MHz). *)
  Vm.deliver vm (syn_packet 0);
  Sim.run sim ~until:1.0;
  let u = Vm.utilization_since_last_sample vm in
  check_bool "~10% busy" true (u > 0.08 && u < 0.13)

(* ------------------------------------------------------------------ *)
(* Fabric end-to-end: two servers, VM to VM *)

let test_params =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 16 * 1024 * 1024 }

let vpc = Vpc.make 9

let mk_vnic ~id ~ip:addr = Vnic.make ~id ~vpc ~ip:(ip addr) ~mac:(Mac.of_int64 (Int64.of_int id))

let basic_ruleset ?(mapping = []) () =
  let rs = Ruleset.create ~vni:9 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  List.iter (fun (a, server) -> Ruleset.add_mapping rs { Vnic.Addr.vpc; ip = ip a } (ip server)) mapping;
  rs

type duo = {
  sim : Sim.t;
  fabric : Fabric.t;
  vs0 : Vswitch.t;
  vs1 : Vswitch.t;
  vm0 : Vm.t;
  vm1 : Vm.t;
}

(* Server 0 hosts vNIC 1 at 10.0.0.1; server 1 hosts vNIC 2 at 10.0.0.2. *)
let make_duo ?(know_peer = true) () =
  let sim = Sim.create () in
  let topo = Topology.create ~racks:1 ~servers_per_rack:2 in
  let fabric = Fabric.create ~sim ~topology:topo in
  let vs0 = Fabric.add_server fabric 0 ~params:test_params in
  let vs1 = Fabric.add_server fabric 1 ~params:test_params in
  let v1 = mk_vnic ~id:1 ~ip:"10.0.0.1" and v2 = mk_vnic ~id:2 ~ip:"10.0.0.2" in
  let rs0 =
    basic_ruleset ~mapping:(if know_peer then [ ("10.0.0.2", "192.168.1.2") ] else []) ()
  in
  let rs1 = basic_ruleset ~mapping:[ ("10.0.0.1", "192.168.1.1") ] () in
  (match (Vswitch.add_vnic vs0 v1 rs0, Vswitch.add_vnic vs1 v2 rs1) with
  | Ok (), Ok () -> ()
  | _, _ -> Alcotest.fail "vnics must fit");
  let vm0 = Vm.create ~sim ~name:"vm0" ~vcpus:8 () in
  let vm1 = Vm.create ~sim ~name:"vm1" ~vcpus:8 () in
  Fabric.attach_vm fabric 0 v1.Vnic.id vm0;
  Fabric.attach_vm fabric 1 v2.Vnic.id vm1;
  (* Gateway knows everything. *)
  Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = ip "10.0.0.1" }
    [| ip "192.168.1.1" |];
  Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = ip "10.0.0.2" }
    [| ip "192.168.1.2" |];
  { sim; fabric; vs0; vs1; vm0; vm1 }

let tx_syn ?(sport = 40000) () =
  Packet.create ~vpc
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:sport ~dst_port:80
         ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags:Packet.syn ()

let test_fabric_vm_to_vm () =
  let d = make_duo () in
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ());
  Sim.run d.sim ~until:1.0;
  check_int "vm1 got the packet" 1 (Vm.packets_delivered d.vm1);
  check_int "nothing lost" 0 (Fabric.lost d.fabric);
  check_int "gateway untouched" 0 (Gateway.forwarded (Fabric.gateway d.fabric))

let test_fabric_unknown_peer_takes_gateway_detour () =
  let d = make_duo ~know_peer:false () in
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ());
  Sim.run d.sim ~until:1.0;
  check_int "gateway forwarded it" 1 (Gateway.forwarded (Fabric.gateway d.fabric));
  check_int "vm1 still got it" 1 (Vm.packets_delivered d.vm1)

let test_fabric_gateway_unknown_drops () =
  let d = make_duo () in
  let pkt =
    Packet.create ~vpc
      ~flow:
        (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.77") ~src_port:40000 ~dst_port:80
           ~proto:Five_tuple.Tcp)
      ~direction:Packet.Tx ~flags:Packet.syn ()
  in
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) pkt;
  Sim.run d.sim ~until:1.0;
  check_int "gateway dropped" 1 (Gateway.dropped (Fabric.gateway d.fabric))

let test_fabric_request_response () =
  let d = make_duo () in
  (* vm1 answers every admitted packet with a reversed syn-ack. *)
  Vm.set_app d.vm1 (fun _ pkt ->
      let resp =
        Packet.create ~vpc
          ~flow:(Five_tuple.reverse pkt.Packet.flow)
          ~direction:Packet.Tx ~flags:Packet.syn_ack ()
      in
      Vswitch.from_vm d.vs1 (Vnic.id_of_int 2) resp);
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ());
  Sim.run d.sim ~until:1.0;
  check_int "response reached vm0" 1 (Vm.packets_delivered d.vm0)

let test_fabric_latency_applied () =
  let d = make_duo () in
  let t0 = ref 0.0 in
  Vm.set_app d.vm1 (fun sim _ -> t0 := Sim.now sim);
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ());
  Sim.run d.sim ~until:1.0;
  (* Must include at least the same-rack hop (10 us). *)
  check_bool "took at least the wire latency" true (!t0 >= 10e-6)

let test_fabric_double_add_rejected () =
  let sim = Sim.create () in
  let topo = Topology.create ~racks:1 ~servers_per_rack:1 in
  let fabric = Fabric.create ~sim ~topology:topo in
  ignore (Fabric.add_server fabric 0 ~params:test_params : Vswitch.t);
  Alcotest.check_raises "double add"
    (Invalid_argument "Fabric.add_server: server already populated") (fun () ->
      ignore (Fabric.add_server fabric 0 ~params:test_params : Vswitch.t))


let test_fabric_gateway_learning () =
  (* §4.2.1 on-demand learning: the first flow to an unknown peer detours
     via the gateway; within the 200 ms learning interval the mapping is
     installed and later flows go direct. *)
  let d = make_duo ~know_peer:false () in
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ~sport:40001 ());
  Sim.run d.sim ~until:0.1;
  check_int "first flow detoured" 1 (Gateway.forwarded (Fabric.gateway d.fabric));
  (* Past the learning interval: a brand-new flow goes direct. *)
  Sim.run d.sim ~until:1.0;
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ~sport:40002 ());
  Sim.run d.sim ~until:2.0;
  check_int "second flow direct" 1 (Gateway.forwarded (Fabric.gateway d.fabric));
  check_int "both delivered" 2 (Vm.packets_delivered d.vm1)

let test_fabric_gateway_staleness () =
  (* A vNIC migrates servers mid-run.  The gateway entry is authoritative:
     after cutover a sender re-learns the new placement within the 200 ms
     learning interval, and during the dual window a sender still holding
     the stale mapping keeps being served by the old host — at no point
     may a packet vanish in the underlay (No_such_server stays zero). *)
  let sim = Sim.create () in
  let topo = Topology.create ~racks:1 ~servers_per_rack:3 in
  let fabric = Fabric.create ~sim ~topology:topo in
  let vs0 = Fabric.add_server fabric 0 ~params:test_params in
  let vs1 = Fabric.add_server fabric 1 ~params:test_params in
  let vs2 = Fabric.add_server fabric 2 ~params:test_params in
  let client = mk_vnic ~id:1 ~ip:"10.0.0.1" in
  let service = mk_vnic ~id:2 ~ip:"10.0.0.2" in
  (* The client knows no peer mapping: everything is gateway-learned. *)
  let rs0 = basic_ruleset () in
  let rs1 = basic_ruleset ~mapping:[ ("10.0.0.1", "192.168.1.1") ] () in
  let rs2 = basic_ruleset ~mapping:[ ("10.0.0.1", "192.168.1.1") ] () in
  (match (Vswitch.add_vnic vs0 client rs0, Vswitch.add_vnic vs1 service rs1) with
  | Ok (), Ok () -> ()
  | _, _ -> Alcotest.fail "vnics must fit");
  let vm_old = Vm.create ~sim ~name:"vm-old" ~vcpus:8 () in
  let vm_new = Vm.create ~sim ~name:"vm-new" ~vcpus:8 () in
  Fabric.attach_vm fabric 1 service.Vnic.id vm_old;
  let svc_addr = { Vnic.Addr.vpc; ip = ip "10.0.0.2" } in
  Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = ip "10.0.0.1" }
    [| Topology.underlay_ip topo 0 |];
  Gateway.set_route (Fabric.gateway fabric) svc_addr [| Topology.underlay_ip topo 1 |];
  let send sport = Vswitch.from_vm vs0 (Vnic.id_of_int 1) (tx_syn ~sport ()) in
  let at time f = ignore (Sim.at sim ~time f : Sim.handle) in
  (* t=0: first flow detours via the gateway and triggers learning. *)
  send 41001;
  (* t=0.5: the learned mapping sends new flows direct. *)
  at 0.5 (fun _ -> send 41002);
  (* t=0.6: migrate the vNIC to server 2 (gateway updated first; the old
     host keeps serving until cutover, as a live migration would). *)
  at 0.6 (fun _ ->
      (match Vswitch.add_vnic vs2 service rs2 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "migration target must fit");
      Fabric.attach_vm fabric 2 service.Vnic.id vm_new;
      Gateway.set_route (Fabric.gateway fabric) svc_addr [| Topology.underlay_ip topo 2 |]);
  (* t=0.65: the client's mapping is now stale — the packet still lands on
     the old host (dual window), it must not blackhole. *)
  at 0.65 (fun _ -> send 41003);
  (* t=1.0: cutover — the old host stops serving and the client's stale
     entry is withdrawn, so its next flow takes the gateway detour. *)
  at 1.0 (fun _ ->
      Vswitch.remove_vnic vs1 service.Vnic.id;
      ignore (Ruleset.remove_mapping rs0 svc_addr : bool));
  at 1.05 (fun _ -> send 41004);
  (* t=1.3: within the 200 ms learning interval of the re-query the new
     placement is installed; this flow must go direct to server 2. *)
  at 1.3 (fun _ -> send 41005);
  Sim.run sim ~until:2.0;
  check_int "old host served the pre-migration flows" 3 (Vm.packets_delivered vm_old);
  check_int "new host serves post-cutover flows" 2 (Vm.packets_delivered vm_new);
  (* Two detours: the initial learn and the post-cutover re-learn; the
     t=1.3 flow must already ride the re-learned direct mapping. *)
  check_int "relearned within the learning interval" 2
    (Gateway.forwarded (Fabric.gateway fabric));
  check_int "stale mapping never blackholed a packet" 0
    (Fabric.lost_by fabric Fabric.No_such_server);
  check_int "nothing lost anywhere" 0 (Fabric.lost fabric)

let test_fabric_tap_sees_wire () =
  let d = make_duo () in
  let taps = ref 0 in
  Fabric.set_tap d.fabric (Some (fun ~time:_ pkt ->
      incr taps;
      check_bool "tap sees encapsulated packets" true (pkt.Nezha_net.Packet.vxlan <> None)));
  Vswitch.from_vm d.vs0 (Vnic.id_of_int 1) (tx_syn ());
  Sim.run d.sim ~until:1.0;
  check_int "one wire packet" 1 !taps


let test_fabric_accessors () =
  let d = make_duo () in
  check_int "server of vswitch" 0 (Fabric.server_of_vswitch d.fabric d.vs0);
  check_int "server of vswitch 1" 1 (Fabric.server_of_vswitch d.fabric d.vs1);
  check_bool "vm lookup" true
    (match Fabric.vm_of d.fabric 0 (Vnic.id_of_int 1) with
    | Some vm -> vm == d.vm0
    | None -> false);
  check_bool "missing vm" true (Fabric.vm_of d.fabric 0 (Vnic.id_of_int 99) = None);
  check_bool "vswitch_opt" true (Fabric.vswitch_opt d.fabric 0 <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fabric"
    [
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_topo_shape;
          Alcotest.test_case "addressing roundtrip" `Quick test_topo_addressing_roundtrip;
          Alcotest.test_case "latency ordering" `Quick test_topo_latency_ordering;
          Alcotest.test_case "invalid dimensions" `Quick test_topo_invalid;
        ] );
      ( "vm",
        [
          Alcotest.test_case "saturating capacity" `Quick test_vm_saturating_capacity;
          Alcotest.test_case "processes and counts" `Quick test_vm_processes_and_counts;
          Alcotest.test_case "deliveries promote little" `Quick test_vm_deliveries_promote_little;
          Alcotest.test_case "backlog overflow" `Quick test_vm_backlog_overflow;
          Alcotest.test_case "utilization" `Quick test_vm_utilization;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "vm to vm" `Quick test_fabric_vm_to_vm;
          Alcotest.test_case "gateway detour" `Quick test_fabric_unknown_peer_takes_gateway_detour;
          Alcotest.test_case "gateway unknown drops" `Quick test_fabric_gateway_unknown_drops;
          Alcotest.test_case "request response" `Quick test_fabric_request_response;
          Alcotest.test_case "latency applied" `Quick test_fabric_latency_applied;
          Alcotest.test_case "double add rejected" `Quick test_fabric_double_add_rejected;
          Alcotest.test_case "gateway on-demand learning" `Quick test_fabric_gateway_learning;
          Alcotest.test_case "gateway staleness across migration" `Quick
            test_fabric_gateway_staleness;
          Alcotest.test_case "wire tap" `Quick test_fabric_tap_sees_wire;
          Alcotest.test_case "accessors" `Quick test_fabric_accessors;
        ] );
    ]
