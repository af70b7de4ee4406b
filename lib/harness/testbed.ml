open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_workloads

type t = {
  sim : Sim.t;
  rng : Rng.t;
  fabric : Fabric.t;
  faults : Faults.t;
  ctl : Controller.t;
  vpc : Vpc.t;
  heavy_server : Topology.server_id;
  server : Tcp_crr.endpoint;
  clients : Tcp_crr.endpoint array;
  telemetry : Nezha_telemetry.Telemetry.t;
  trace : Nezha_telemetry.Trace.t;
}

(* The VM kernel at 1/100 CPU scale (like Params.scaled).  With 64 vCPUs
   and contention 0.04 the acceptance capacity is ~12.4k CPS — about
   3.3x a local vSwitch's ~3.7k CPS setup capacity, reproducing the
   Fig. 9 plateau and the Fig. 10 shape. *)
let scaled_kernel =
  {
    Vm.per_core_hz = 2.5e7;
    contention = 0.04;
    packet_cycles = 1_500;
    connection_cycles = 32_000;
    backlog = 8192;
  }

let vpc = Vpc.make 9
let heavy_vnic_id = Vnic.id_of_int 1
let heavy_ip = Ipv4.of_octets 10 0 0 1

let client_ip i = Ipv4.of_octets 10 0 1 (i + 1)

let ten_slash_8 = Ipv4.Prefix.make (Ipv4.of_octets 10 0 0 0) 8

let basic_ruleset () =
  let acl = Acl.create () in
  (* 100 rules that never match the test traffic: every lookup scans
     them all, the worst-case cost the paper's Table A1 sweeps. *)
  for i = 1 to 100 do
    Acl.add acl
      (Acl.rule ~priority:i ~src:(Ipv4.Prefix.make (Ipv4.of_octets 172 16 0 0) 12) Acl.Deny)
  done;
  let rs = Ruleset.create ~vni:9 ~acl () in
  Ruleset.add_route rs ten_slash_8;
  rs

let create ?(seed = 1) ?(racks = 5) ?(servers_per_rack = 8) ?(params = Params.scaled) ?ruleset
    ?middlebox ?(server_vcpus = 64) ?(clients = 4)
    ?(controller_config =
      { Controller.default_config with Controller.auto_offload = false; auto_scale = false })
    ?(reserve_servers = []) () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let topo = Topology.create ~racks ~servers_per_rack in
  let fabric = Fabric.create ~sim ~topology:topo in
  (* The fault plane's rng is derived from the seed directly — not from
     [Rng.split rng] — so fault draws stay identical no matter how the
     rest of the testbed evolves its split order. *)
  let faults = Faults.create ~sim ~topology:topo ~rng:(Rng.create (seed + 0x6F41)) () in
  Fabric.set_faults fabric (Some faults);
  (* One flight recorder shared by every component so stage and wire
     spans land on the same traces.  Disabled until an experiment (or a
     caller) flips it on — the datapaths then pay one [match] per site. *)
  let trace = Nezha_telemetry.Trace.create () in
  Fabric.set_tracer fabric (Some trace);
  let n = Topology.server_count topo in
  let clients = min clients servers_per_rack in
  let client_servers = List.init clients (fun i -> n - clients + i) in
  (* Clients live on CPU-generous vSwitches so the heavy vNIC is the only
     bottleneck under test. *)
  let client_params =
    { params with Params.cpu_hz = params.Params.cpu_hz *. 50.0;
      mem_bytes = params.Params.mem_bytes * 4 }
  in
  List.iter
    (fun s ->
      if not (List.mem s reserve_servers) then begin
        let p = if List.mem s client_servers then client_params else params in
        let vs = Fabric.add_server fabric s ~params:p in
        Vswitch.set_tracer vs (Some trace)
      end)
    (Topology.servers topo);
  let heavy_server = 0 in
  let heavy_vs = Fabric.vswitch fabric heavy_server in
  let heavy_rs =
    match (ruleset, middlebox) with
    | Some rs, _ -> rs
    | None, Some kind -> Middlebox.make_ruleset kind ~rng ~vni:9 ~mem_scale:1000.0 ()
    | None, None -> basic_ruleset ()
  in
  List.iteri
    (fun i s ->
      Ruleset.add_mapping heavy_rs
        { Vnic.Addr.vpc; ip = client_ip i }
        (Topology.underlay_ip topo s))
    client_servers;
  let heavy_vnic = Vnic.make ~id:1 ~vpc ~ip:heavy_ip ~mac:(Mac.of_int64 1L) in
  Admission.exn ~context:"Testbed: heavy vNIC"
    (Vswitch.add_vnic heavy_vs heavy_vnic heavy_rs);
  let server_vm = Vm.create ~sim ~name:"heavy-vm" ~vcpus:server_vcpus ~kernel:scaled_kernel () in
  Fabric.attach_vm fabric heavy_server heavy_vnic.Vnic.id server_vm;
  Vm.set_tracer server_vm (Some trace);
  Gateway.set_route (Fabric.gateway fabric)
    { Vnic.Addr.vpc; ip = heavy_ip }
    [| Topology.underlay_ip topo heavy_server |];
  let client_eps =
    Array.of_list
      (List.mapi
         (fun i s ->
           let vs = Fabric.vswitch fabric s in
           let cip = client_ip i in
           let vnic = Vnic.make ~id:(100 + i) ~vpc ~ip:cip ~mac:(Mac.of_int64 (Int64.of_int (100 + i))) in
           let rs = Ruleset.create ~vni:9 ~fixed_overhead_bytes:65536 () in
           Ruleset.add_route rs ten_slash_8;
           Ruleset.add_mapping rs { Vnic.Addr.vpc; ip = heavy_ip }
             (Topology.underlay_ip topo heavy_server);
           Admission.exn ~context:"Testbed: client vNIC"
             (Vswitch.add_vnic vs vnic rs);
           let vm = Vm.create ~sim ~name:(Printf.sprintf "client-%d" i) ~vcpus:64 () in
           Fabric.attach_vm fabric s vnic.Vnic.id vm;
           Vm.set_tracer vm (Some trace);
           Gateway.set_route (Fabric.gateway fabric) { Vnic.Addr.vpc; ip = cip }
             [| Topology.underlay_ip topo s |];
           { Tcp_crr.vs; vnic = vnic.Vnic.id; vm; ip = cip })
         client_servers)
  in
  let ctl = Controller.create ~config:controller_config ~fabric ~rng:(Rng.split rng) () in
  let telemetry = Nezha_telemetry.Telemetry.create () in
  List.iter
    (fun s ->
      match Fabric.vswitch_opt fabric s with
      | Some vs -> Vswitch.register_telemetry vs telemetry
      | None -> ())
    (Topology.servers topo);
  Fabric.register_telemetry fabric telemetry;
  Controller.register_telemetry ctl telemetry;
  {
    sim;
    rng;
    fabric;
    faults;
    ctl;
    vpc;
    heavy_server;
    server =
      { Tcp_crr.vs = heavy_vs; vnic = heavy_vnic.Vnic.id; vm = server_vm; ip = heavy_ip };
    clients = client_eps;
    telemetry;
    trace;
  }

let offload t ?num_fes () =
  match Controller.offload_vnic t.ctl ~server:t.heavy_server ~vnic:heavy_vnic_id ?num_fes () with
  | Error e -> failwith ("Testbed.offload: " ^ e)
  | Ok o ->
    Sim.run t.sim ~until:(Sim.now t.sim +. 5.0);
    if Controller.offload_stage o <> Be.Final then failwith "Testbed.offload: not final";
    o

let run_crr t ~rate ~duration ?(client = 0) ?(settle = 2.0) () =
  let crr =
    Tcp_crr.start ~sim:t.sim ~rng:(Rng.split t.rng) ~vpc:t.vpc ~client:t.clients.(client)
      ~server:t.server ~rate ~duration ()
  in
  Sim.run t.sim ~until:(Sim.now t.sim +. duration +. settle);
  crr

let local_cps_capacity_estimate t =
  let p = Vswitch.params t.server.Tcp_crr.vs in
  let rs = Vswitch.ruleset t.server.Tcp_crr.vs heavy_vnic_id in
  let acl_scanned =
    match rs with Some rs -> Acl.rule_count (Ruleset.acl rs) | None -> 100
  in
  let tables = match rs with Some rs -> Ruleset.table_count rs | None -> 5 in
  let lookup = Params.rule_lookup_cycles ~acl_rules_scanned:acl_scanned ~lpm_depth:8 ~tables in
  let per_conn =
    lookup + Params.session_setup_cycles
    + (5 * (Params.fast_path_cycles + Params.encap_cycles + 300))
  in
  p.Params.cpu_hz /. float_of_int per_conn

let closed_loop_run t ~concurrency ~duration =
  let n = Array.length t.clients in
  let gens =
    Array.to_list
      (Array.map
         (fun client ->
           Tcp_crr.start_closed ~sim:t.sim ~rng:(Rng.split t.rng) ~vpc:t.vpc ~client
             ~server:t.server ~concurrency:(concurrency / n) ~duration ())
         t.clients)
  in
  Sim.run t.sim ~until:(Sim.now t.sim +. duration +. 3.0);
  gens

let measure_cps t ?(concurrency = 512) ?(duration = 3.0) () =
  let gens = closed_loop_run t ~concurrency ~duration in
  let completed = List.fold_left (fun acc g -> acc + Tcp_crr.completed g) 0 gens in
  float_of_int completed /. duration

let measure_latency t ?(concurrency = 512) ?(duration = 3.0) () =
  let gens = closed_loop_run t ~concurrency ~duration in
  let merged = Stats.Histogram.create () in
  List.iter
    (fun g -> Stats.Histogram.merge_into ~dst:merged ~src:(Tcp_crr.latencies g))
    gens;
  merged
