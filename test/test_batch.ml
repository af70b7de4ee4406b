(* Differential tests for the batched dataplane: a burst of N packets
   pushed through the vectored entry points must be observably
   equivalent to N single-packet calls — same outputs, same deliveries,
   same per-reason drops, same counters, same session tables.  Covered
   end to end: the local vSwitch TX/RX paths, the BE -> FE NSH hop, and
   the hop under injected loss (where the equivalence must survive
   retransmission). *)

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
(* Pbatch mechanics *)

let mk_pkt ?(sport = 40000) () =
  Packet.create ~vpc:(Vpc.make 1)
    ~flow:
      (Five_tuple.make ~src:(ip "1.0.0.1") ~dst:(ip "1.0.0.2") ~src_port:sport
         ~dst_port:80 ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ()

let test_pbatch_push_grow () =
  let b = Pbatch.create ~capacity:2 () in
  check_bool "fresh is empty" true (Pbatch.is_empty b);
  for i = 1 to 5 do
    Pbatch.push b (mk_pkt ~sport:i ())
  done;
  check_int "length" 5 (Pbatch.length b);
  check_bool "grew" true (Pbatch.capacity b >= 5);
  check_int "order kept" 1 (Pbatch.get b 0).Packet.flow.Five_tuple.src_port;
  check_int "order kept (last)" 5 (Pbatch.get b 4).Packet.flow.Five_tuple.src_port;
  Pbatch.filter_in_place b (fun p -> p.Packet.flow.Five_tuple.src_port mod 2 = 0);
  check_int "filtered" 2 (Pbatch.length b);
  check_int "stable order" 2 (Pbatch.get b 0).Packet.flow.Five_tuple.src_port;
  check_int "stable order (2)" 4 (Pbatch.get b 1).Packet.flow.Five_tuple.src_port;
  Pbatch.clear b;
  check_bool "cleared" true (Pbatch.is_empty b)

let test_pbatch_of_list_roundtrip () =
  let pkts = List.init 7 (fun i -> mk_pkt ~sport:(1000 + i) ()) in
  let b = Pbatch.of_list pkts in
  check_bool "same packets, same order" true (List.map2 ( == ) pkts (Pbatch.to_list b) |> List.for_all Fun.id)

let test_pbatch_arena_recirculates () =
  Pbatch.reset_pool ();
  let b = Pbatch.alloc () in
  Pbatch.push b (mk_pkt ());
  Pbatch.recycle b;
  Pbatch.recycle b;
  (* double recycle must be a no-op *)
  let allocs, reuses, recycles = Pbatch.pool_stats () in
  check_int "one alloc" 1 allocs;
  check_int "no reuse yet" 0 reuses;
  check_int "one recycle" 1 recycles;
  let b2 = Pbatch.alloc () in
  check_bool "same buffer recirculated" true (b == b2);
  check_bool "came back clean" true (Pbatch.is_empty b2);
  let _, reuses, _ = Pbatch.pool_stats () in
  check_int "one reuse" 1 reuses;
  Pbatch.recycle b2;
  Pbatch.reset_pool ()

(* ------------------------------------------------------------------ *)
(* Observation helpers *)

(* Packet uids differ between the two worlds (the counter is global), so
   equality is on everything observable but the uid. *)
let pkt_fp (p : Packet.t) =
  ( p.Packet.flow,
    p.Packet.direction,
    p.Packet.flags,
    (match p.Packet.vxlan with
    | None -> None
    | Some v -> Some (v.Packet.vni, v.Packet.outer_src, v.Packet.outer_dst)),
    p.Packet.nsh <> None )

let vs_snapshot vs =
  let c = Vswitch.counters vs in
  let v = Stats.Counter.value in
  [
    v c.Vswitch.rx_packets;
    v c.Vswitch.tx_packets;
    v c.Vswitch.delivered;
    v c.Vswitch.forwarded;
    v c.Vswitch.slow_path_execs;
    v c.Vswitch.fast_path_hits;
    v c.Vswitch.sessions_created;
    v c.Vswitch.notify_packets;
  ]
  @ List.map (fun r -> Vswitch.drop_count vs r) Nf.all_drop_reasons

(* For a vSwitch *downstream* of the batched hop the slow/fast split is
   timing-dependent, not semantics-dependent: batching coalesces the
   upstream pipeline, so packets that trickled in one at a time (the
   last of which could catch the just-stored session and score a fast
   hit) now arrive as one group against the pre-batch table.  The
   packet set, totals, drops and final session tables are identical;
   only the cache tier that resolved them may shift.  So downstream
   hops are compared with slow+fast merged — the exact split is
   asserted at the injection hop and in the local differentials. *)
let vs_snapshot_downstream vs =
  let c = Vswitch.counters vs in
  let v = Stats.Counter.value in
  [
    v c.Vswitch.rx_packets;
    v c.Vswitch.tx_packets;
    v c.Vswitch.delivered;
    v c.Vswitch.forwarded;
    v c.Vswitch.slow_path_execs + v c.Vswitch.fast_path_hits;
    v c.Vswitch.sessions_created;
    v c.Vswitch.notify_packets;
  ]
  @ List.map (fun r -> Vswitch.drop_count vs r) Nf.all_drop_reasons

let sessions_fp vs vid =
  let acc = ref [] in
  Vswitch.iter_sessions vs vid (fun k s ->
      acc := (k, s.Vswitch.pre, s.Vswitch.state) :: !acc);
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Local datapath differential (no fabric): one vSwitch, mixed bursts
   hitting the mapped-peer, gateway and no-route groups. *)

let lparams =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 8 * 1024 * 1024 }

let vnic_a = Vnic.make ~id:1 ~vpc:(Vpc.make 5) ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 1L)

type lworld = {
  lsim : Sim.t;
  lvs : Vswitch.t;
  lrs : Ruleset.t;
  lto_net : Packet.t list ref;
  lto_vm : (Vnic.id * Packet.t) list ref;
}

let make_local () =
  let sim = Sim.create () in
  let vs =
    Vswitch.create ~sim ~params:lparams ~name:"vs0" ~underlay_ip:(ip "192.168.0.1")
      ~gateway:(ip "192.168.255.254") ()
  in
  let to_net = ref [] and to_vm = ref [] in
  Vswitch.set_sink vs
    {
      Vswitch.on_output =
        (function
        | Vswitch.To_net p -> to_net := p :: !to_net
        | Vswitch.To_vm (vid, p) -> to_vm := (vid, p) :: !to_vm);
      on_net_batch =
        (fun batch ->
          Pbatch.iter batch (fun p -> to_net := p :: !to_net);
          Pbatch.recycle batch);
    };
  let rs = Ruleset.create ~vni:5 ~acl:(Acl.create ()) () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs
    { Vnic.Addr.vpc = Vpc.make 5; ip = ip "10.0.0.2" }
    (ip "192.168.0.2");
  (match Vswitch.add_vnic vs vnic_a rs with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "vnic must fit");
  { lsim = sim; lvs = vs; lrs = rs; lto_net = to_net; lto_vm = to_vm }

let flag_of = function 0 -> Packet.syn | 1 -> Packet.ack | _ -> Packet.fin_ack

(* Flow classes: 0/1 mapped peer (distinct sessions sharing the
   megaflow), 2 routed-but-unmapped (gateway), 3 unroutable (No_route
   drop group, never memoized). *)
let tx_of_spec (flow_i, flag_i) =
  let dst, sport =
    match flow_i with
    | 0 -> ("10.0.0.2", 40000)
    | 1 -> ("10.0.0.2", 40001)
    | 2 -> ("10.0.0.77", 40002)
    | _ -> ("99.9.9.9", 40003)
  in
  Packet.create ~vpc:(Vpc.make 5)
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip dst) ~src_port:sport
         ~dst_port:80 ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags:(flag_of flag_i) ()

(* Flow classes: 0/1/2 distinct sessions to the local vNIC, 3 targets a
   non-existent vNIC (forces a batch-lane flush and a No_vnic drop). *)
let rx_of_spec (flow_i, flag_i) =
  let src, sport, dst =
    match flow_i with
    | 0 -> ("10.0.0.2", 50000, "10.0.0.1")
    | 1 -> ("10.0.0.2", 50001, "10.0.0.1")
    | 2 -> ("10.0.0.3", 50002, "10.0.0.1")
    | _ -> ("10.0.0.2", 50003, "10.0.0.99")
  in
  let p =
    Packet.create ~vpc:(Vpc.make 5)
      ~flow:
        (Five_tuple.make ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:80
           ~proto:Five_tuple.Tcp)
      ~direction:Packet.Rx ~flags:(flag_of flag_i) ()
  in
  Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2")
    ~outer_dst:(ip "192.168.0.1");
  p

let local_observed w =
  ( List.rev_map pkt_fp !(w.lto_net),
    List.rev_map (fun (vid, p) -> (vid, pkt_fp p)) !(w.lto_vm),
    vs_snapshot w.lvs,
    sessions_fp w.lvs vnic_a.Vnic.id,
    (Ruleset.megaflow_hits w.lrs, Ruleset.megaflow_misses w.lrs) )

let run_local_diff ~inject_single ~inject_batch specs =
  let wa = make_local () and wb = make_local () in
  List.iter (fun s -> inject_single wa s) specs;
  Sim.run wa.lsim ~until:1.0;
  inject_batch wb specs;
  Sim.run wb.lsim ~until:1.0;
  local_observed wa = local_observed wb

let spec_gen = QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 3) (int_range 0 2)))

let qtest_local_tx =
  QCheck.Test.make ~name:"batch TX == N singles (local path)" ~count:60 spec_gen
    (run_local_diff
       ~inject_single:(fun w s -> Vswitch.from_vm w.lvs vnic_a.Vnic.id (tx_of_spec s))
       ~inject_batch:(fun w specs ->
         Vswitch.from_vnic_batch w.lvs vnic_a.Vnic.id
           (Pbatch.of_list (List.map tx_of_spec specs))))

let qtest_local_rx =
  QCheck.Test.make ~name:"batch RX == N singles (local path)" ~count:60 spec_gen
    (run_local_diff
       ~inject_single:(fun w s -> Vswitch.from_net w.lvs (rx_of_spec s))
       ~inject_batch:(fun w specs ->
         Vswitch.from_net_batch w.lvs (Pbatch.of_list (List.map rx_of_spec specs))))

(* Rate limiting draws tokens in batch order, so the survivor set must
   match the single-packet run exactly. *)
let test_batch_rate_limit_differential () =
  let run batch =
    let w = make_local () in
    Vswitch.set_rate_limit w.lvs vnic_a.Vnic.id ~bps:4000.0 ~burst_bytes:200.0;
    let pkts = List.init 12 (fun _ -> tx_of_spec (0, 1)) in
    if batch then Vswitch.from_vnic_batch w.lvs vnic_a.Vnic.id (Pbatch.of_list pkts)
    else List.iter (Vswitch.from_vm w.lvs vnic_a.Vnic.id) pkts;
    Sim.run w.lsim ~until:1.0;
    (local_observed w, Vswitch.drop_count w.lvs Nf.Rate_limited)
  in
  let (obs_a, rl_a) = run false and (obs_b, rl_b) = run true in
  check_bool "rate-limited burst equivalent" true (obs_a = obs_b);
  check_bool "some packets were rate limited" true (rl_a > 0);
  check_int "same rate-limit drops" rl_a rl_b

(* ------------------------------------------------------------------ *)
(* BE -> FE hop differential: the test_nezha world with the heavy vNIC
   offloaded, driven from the heavy VM. *)

let vpc9 = Vpc.make 9
let heavy_addr = { Vnic.Addr.vpc = vpc9; ip = ip "10.0.0.1" }

let hop_params =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 32 * 1024 * 1024 }

type hworld = {
  hsim : Sim.t;
  hfabric : Fabric.t;
  hctl : Controller.t;
  heavy_vs : Vswitch.t;
  client_vs : Vswitch.t;
  heavy_vm : Vm.t;
  client_vm : Vm.t;
}

let make_hop_world () =
  let sim = Sim.create () in
  let rng = Rng.create 42 in
  let topo = Topology.create ~racks:2 ~servers_per_rack:4 in
  let fabric = Fabric.create ~sim ~topology:topo in
  let switches =
    List.map (fun s -> Fabric.add_server fabric s ~params:hop_params) (Topology.servers topo)
  in
  let heavy_vs = List.nth switches 0 and client_vs = List.nth switches 1 in
  let heavy = Vnic.make ~id:1 ~vpc:vpc9 ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 1L) in
  let client = Vnic.make ~id:2 ~vpc:vpc9 ~ip:(ip "10.0.0.2") ~mac:(Mac.of_int64 2L) in
  let heavy_rs = Ruleset.create ~vni:9 ~acl:(Acl.create ()) () in
  Ruleset.add_route heavy_rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping heavy_rs { Vnic.Addr.vpc = vpc9; ip = ip "10.0.0.2" } (ip "192.168.1.2");
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
    { Vnic.Addr.vpc = vpc9; ip = ip "10.0.0.2" }
    [| ip "192.168.1.2" |];
  let ctl =
    Controller.create
      ~config:
        { Controller.default_config with Controller.auto_offload = false; auto_scale = false }
      ~fabric ~rng ()
  in
  { hsim = sim; hfabric = fabric; hctl = ctl; heavy_vs; client_vs; heavy_vm; client_vm }

let vnic1 = Vnic.id_of_int 1

let heavy_tx ?(dport = 40000) ?(flags = Packet.syn) () =
  Packet.create ~vpc:vpc9
    ~flow:
      (Five_tuple.make ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:80
         ~dst_port:dport ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags ()

let do_offload w =
  match Controller.offload_vnic w.hctl ~server:0 ~vnic:vnic1 ~num_fes:4 () with
  | Ok o -> o
  | Error e -> Alcotest.fail ("offload failed: " ^ e)

let be_snapshot be =
  let c = Be.counters be in
  let v = Stats.Counter.value in
  [
    v c.Be.tx_via_fe;
    v c.Be.rx_from_fe;
    v c.Be.notify_received;
    v c.Be.bounced;
    v c.Be.offload_tracked;
    v c.Be.offload_acked;
    v c.Be.offload_timeouts;
    v c.Be.offload_retx;
    v c.Be.offload_resteered;
    v c.Be.local_fallback;
    v c.Be.local_bypass;
    v c.Be.offload_dropped;
    v c.Be.offload_untracked;
  ]

let fe_sum_snapshot w o =
  let v = Stats.Counter.value in
  List.fold_left
    (fun acc s ->
      match Controller.fe_service w.hctl s with
      | None -> acc
      | Some fe ->
        let c = Fe.counters fe in
        List.map2 ( + ) acc
          [
            v c.Fe.rule_lookups;
            v c.Fe.fast_hits;
            v c.Fe.notify_sent;
            v c.Fe.rx_forwarded;
            v c.Fe.tx_finalized;
            v c.Fe.hop_acks_sent;
          ])
    [ 0; 0; 0; 0; 0; 0 ]
    (Controller.offload_fe_servers o)

let hop_observed w o =
  ( Vm.packets_delivered w.client_vm,
    Vm.packets_delivered w.heavy_vm,
    be_snapshot (Controller.offload_be o),
    fe_sum_snapshot w o,
    vs_snapshot w.heavy_vs,
    vs_snapshot_downstream w.client_vs,
    Fabric.delivered_to_vms w.hfabric,
    Fabric.lost w.hfabric )

(* dports, one per packet; repeats mean same-flow groups. *)
let hop_gen = QCheck.(list_of_size Gen.(int_range 1 24) (int_range 0 5))

let qtest_hop =
  QCheck.Test.make ~name:"batch TX == N singles (BE->FE hop)" ~count:12 hop_gen
    (fun dports ->
      let run batch =
        let w = make_hop_world () in
        let o = do_offload w in
        Sim.run w.hsim ~until:5.0;
        let pkts = List.map (fun d -> heavy_tx ~dport:(40000 + d) ()) dports in
        if batch then Vswitch.from_vnic_batch w.heavy_vs vnic1 (Pbatch.of_list pkts)
        else List.iter (Vswitch.from_vm w.heavy_vs vnic1) pkts;
        Sim.run w.hsim ~until:10.0;
        hop_observed w o
      in
      run false = run true)

(* ------------------------------------------------------------------ *)
(* The hop under injected loss.  Only the BE -> FE data direction is
   impaired; Faults draws randomness exclusively on links with a
   non-zero probability, so the draw sequence is identical between the
   single-packet and batched runs and the outcomes must match exactly —
   including which packets are retransmitted. *)

let test_batch_loss_differential () =
  let run batch =
    let w = make_hop_world () in
    let faults =
      Faults.create ~sim:w.hsim ~topology:(Fabric.topology w.hfabric)
        ~rng:(Rng.create 7) ()
    in
    Fabric.set_faults w.hfabric (Some faults);
    let o = do_offload w in
    Sim.run w.hsim ~until:5.0;
    List.iter
      (fun s ->
        Faults.set_link faults ~src:(Faults.Server 0) ~dst:(Faults.Server s)
          (Faults.impair ~loss:0.01 ()))
      (Controller.offload_fe_servers o);
    for k = 0 to 7 do
      ignore
        (Sim.schedule w.hsim ~delay:(0.05 *. float_of_int k) (fun _ ->
             let pkts = List.init 32 (fun i -> heavy_tx ~dport:(41000 + (64 * k) + i) ()) in
             if batch then Vswitch.from_vnic_batch w.heavy_vs vnic1 (Pbatch.of_list pkts)
             else List.iter (Vswitch.from_vm w.heavy_vs vnic1) pkts)
          : Sim.handle)
    done;
    Sim.run w.hsim ~until:20.0;
    let be = Controller.offload_be o in
    let v = Stats.Counter.value in
    let c = Be.counters be in
    check_int "all hop losses recovered: nothing outstanding" 0 (Be.outstanding be);
    check_int "conservation: tracked = acked + fallback + dropped"
      (v c.Be.offload_tracked)
      (v c.Be.offload_acked + v c.Be.local_fallback + v c.Be.offload_dropped);
    (hop_observed w o, Faults.drops_injected faults, Faults.consults faults)
  in
  let obs_a, drops_a, consults_a = run false in
  let obs_b, drops_b, consults_b = run true in
  check_bool "loss actually struck" true (drops_a > 0);
  check_int "same injected drops" drops_a drops_b;
  check_int "same fault consults" consults_a consults_b;
  check_bool "lossy burst observably equivalent" true (obs_a = obs_b);
  check_int "every packet still delivered (retx recovered the drops)" 256
    (let delivered, _, _, _, _, _, _, _ = obs_a in
     delivered)

(* ------------------------------------------------------------------ *)
(* A declined NSH packet.  A packet from a vNIC the FE serves, whose NSH
   carries no state, is not FE work: the FE hands it back with its
   header intact, and the vSwitch carries on with it — local delivery
   when the inner destination is hosted here, a No_vnic drop otherwise.
   The single path and the burst must agree on that outcome. *)

let test_declined_nsh_differential () =
  let run batch =
    let w = make_local () in
    let fe = Fe.install w.lvs in
    let served = Vnic.make ~id:7 ~vpc:(Vpc.make 5) ~ip:(ip "10.0.0.9") ~mac:(Mac.of_int64 7L) in
    (match Fe.serve fe ~vnic:served ~ruleset:(Ruleset.create ~vni:5 ()) ~be:(ip "192.168.0.9") with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "served vnic must fit");
    let declined dst =
      let p =
        Packet.create ~vpc:(Vpc.make 5)
          ~flow:
            (Five_tuple.make ~src:(ip "10.0.0.9") ~dst:(ip dst) ~src_port:5000 ~dst_port:80
               ~proto:Five_tuple.Tcp)
          ~direction:Packet.Rx ~flags:Packet.syn ()
      in
      Packet.set_nsh p Packet.empty_nsh;
      Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.9") ~outer_dst:(ip "192.168.0.1");
      p
    in
    let pkts = [ declined "10.0.0.1"; declined "10.0.0.99" ] in
    if batch then Vswitch.from_net_batch w.lvs (Pbatch.of_list pkts)
    else List.iter (Vswitch.from_net w.lvs) pkts;
    Sim.run w.lsim ~until:1.0;
    let c = Fe.counters fe in
    ( local_observed w,
      List.map Stats.Counter.value [ c.Fe.rule_lookups; c.Fe.rx_forwarded; c.Fe.tx_finalized ],
      Vswitch.drop_count w.lvs Nf.No_vnic )
  in
  let single = run false and burst = run true in
  check_bool "declined NSH packet: same outcome" true (single = burst);
  let (_, to_vm, _, _, _), fe_work, no_vnic = single in
  check_bool "no FE work done" true (List.for_all (( = ) 0) fe_work);
  (match to_vm with
  | [ (_, (_, _, _, _, has_nsh)) ] -> check_bool "delivered with its header" true has_nsh
  | _ -> Alcotest.fail "the hosted destination must get exactly one packet");
  check_int "the unhosted destination is a No_vnic drop" 1 no_vnic

(* ------------------------------------------------------------------ *)
(* Arena hygiene: single-packet entry points borrow one-slot batches
   from the [Pbatch] arena, so every path — delivery and drop alike —
   must hand them back.  Outstanding = batches taken - batches
   recycled, measured across a run that has gone quiescent (so the
   bursts injected here come from the arena too). *)

let outstanding_after f =
  let f0, r0, c0 = Pbatch.pool_stats () in
  f ();
  let f1, r1, c1 = Pbatch.pool_stats () in
  f1 - f0 + (r1 - r0) - (c1 - c0)

let test_no_leak_crr ~offloaded () =
  let leaked =
    outstanding_after (fun () ->
        let t = Nezha_harness.Testbed.create ~seed:3 () in
        if offloaded then ignore (Nezha_harness.Testbed.offload t () : Controller.offload);
        let crr = Nezha_harness.Testbed.run_crr t ~rate:200.0 ~duration:1.0 () in
        check_bool "connections completed" true (Nezha_workloads.Tcp_crr.completed crr > 0))
  in
  check_int "no Pbatch batch outstanding" 0 leaked

let test_no_leak_on_drops () =
  let w = make_local () in
  let leaked =
    outstanding_after (fun () ->
        (* No_vnic, both directions. *)
        Vswitch.from_vm w.lvs (Vnic.id_of_int 99) (tx_of_spec (0, 0));
        Vswitch.from_net w.lvs (rx_of_spec (3, 0));
        Vswitch.from_net_batch w.lvs (Pbatch.singleton (rx_of_spec (3, 0)));
        (* Rate_limited: a near-empty bucket turns packets away. *)
        Vswitch.set_rate_limit w.lvs vnic_a.Vnic.id ~bps:8.0 ~burst_bytes:100.0;
        List.iter (fun _ -> Vswitch.from_vm w.lvs vnic_a.Vnic.id (tx_of_spec (0, 1))) [ 1; 2; 3 ];
        Vswitch.clear_rate_limit w.lvs vnic_a.Vnic.id;
        Sim.run w.lsim ~until:1.0;
        (* A crashed NIC rejects the charge. *)
        Smartnic.crash (Vswitch.nic w.lvs);
        Vswitch.from_vm w.lvs vnic_a.Vnic.id (tx_of_spec (1, 0));
        Vswitch.from_net w.lvs (rx_of_spec (0, 0));
        Sim.run w.lsim ~until:2.0)
  in
  check_int "No_vnic drops" 3 (Vswitch.drop_count w.lvs Nf.No_vnic);
  check_bool "rate-limit drops" true (Vswitch.drop_count w.lvs Nf.Rate_limited > 0);
  check_int "crashed-NIC drops" 2 (Vswitch.drop_count w.lvs Nf.Nic_crashed);
  check_int "no Pbatch batch outstanding" 0 leaked

(* ------------------------------------------------------------------ *)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ qtest_local_tx; qtest_local_rx; qtest_hop ]

let () =
  Alcotest.run "batch"
    [
      ( "pbatch",
        [
          Alcotest.test_case "push/grow/filter" `Quick test_pbatch_push_grow;
          Alcotest.test_case "of_list roundtrip" `Quick test_pbatch_of_list_roundtrip;
          Alcotest.test_case "arena recirculates" `Quick test_pbatch_arena_recirculates;
        ] );
      ( "differential",
        Alcotest.test_case "rate-limit draw order" `Quick test_batch_rate_limit_differential
        :: Alcotest.test_case "BE->FE hop under 1% loss" `Quick test_batch_loss_differential
        :: Alcotest.test_case "declined NSH packet" `Quick test_declined_nsh_differential
        :: qsuite );
      ( "arena",
        [
          Alcotest.test_case "no leak: local TCP_CRR" `Quick (test_no_leak_crr ~offloaded:false);
          Alcotest.test_case "no leak: offloaded TCP_CRR" `Quick
            (test_no_leak_crr ~offloaded:true);
          Alcotest.test_case "no leak: drop paths" `Quick test_no_leak_on_drops;
        ] );
    ]
