(* Differential tests for the sharded engine: the same workload run on a
   plain simulation, a one-shard cluster and a multi-shard cluster must
   agree on every semantic counter — the shard count is an execution
   detail, not a model parameter (DESIGN.md §10). *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)
let vpc = Vpc.make 9

let test_params =
  { Params.default with Params.cpu_hz = 1e8; mem_bytes = 16 * 1024 * 1024 }

(* ------------------------------------------------------------------ *)
(* Fabric differential: 4 racks x 2 servers, every server sends one
   packet to every other server (staggered), each hop crossing the
   underlay with its real latency.  Rack-aligned shard placement keeps
   every cross-shard hop at >= the minimum cross-rack latency, which is
   the cluster lookahead. *)

type variant = Plain | Cluster of int

let racks = 4
let per_rack = 2

let min_cross_rack_latency topo =
  let n = Topology.server_count topo in
  let m = ref infinity in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if not (Topology.same_rack topo a b) then m := Float.min !m (Topology.latency topo a b)
    done
  done;
  !m

type outcome = {
  delivered : int;
  lost : int;
  forwarded : int array;  (* per-server vSwitch forwarded counters *)
  rx : int array;
}

let run_variant variant =
  let topo = Topology.create ~racks ~servers_per_rack:per_rack in
  let n = Topology.server_count topo in
  let cluster, base_sim, sim_of =
    match variant with
    | Plain ->
      let sim = Sim.create () in
      (None, sim, fun _ -> sim)
    | Cluster shards ->
      let c =
        Sim.Sharded.create ~shards ~lookahead:(min_cross_rack_latency topo) ()
      in
      ( Some c,
        Sim.Sharded.shard c 0,
        fun sid -> Sim.Sharded.shard c (Topology.rack_of topo sid mod shards) )
  in
  let fabric = Fabric.create ~sim:base_sim ~topology:topo in
  let vss =
    Array.init n (fun sid -> Fabric.add_server fabric ~sim:(sim_of sid) sid ~params:test_params)
  in
  (* Server [sid] hosts vNIC 1 at 10.0.0.(sid+1), and knows the underlay
     mapping of every peer so no traffic detours via the gateway. *)
  Array.iteri
    (fun sid vs ->
      let rs = Ruleset.create ~vni:9 () in
      Ruleset.add_route rs (pfx "10.0.0.0/8");
      for peer = 0 to n - 1 do
        if peer <> sid then
          Ruleset.add_mapping rs
            { Vnic.Addr.vpc; ip = ip (Printf.sprintf "10.0.0.%d" (peer + 1)) }
            (Topology.underlay_ip topo peer)
      done;
      let vnic =
        Vnic.make ~id:1 ~vpc
          ~ip:(ip (Printf.sprintf "10.0.0.%d" (sid + 1)))
          ~mac:(Mac.of_int64 (Int64.of_int (sid + 1)))
      in
      match Vswitch.add_vnic vs vnic rs with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "vnic must fit")
    vss;
  (* Every ordered pair sends one SYN, staggered so shards interleave. *)
  let k = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        incr k;
        let delay = 1e-4 *. float_of_int !k in
        let pkt =
          Packet.create ~vpc
            ~flow:
              (Five_tuple.make
                 ~src:(ip (Printf.sprintf "10.0.0.%d" (src + 1)))
                 ~dst:(ip (Printf.sprintf "10.0.0.%d" (dst + 1)))
                 ~src_port:(40000 + !k) ~dst_port:80 ~proto:Five_tuple.Tcp)
            ~direction:Packet.Tx ~flags:Packet.syn ()
        in
        ignore
          (Sim.schedule (sim_of src) ~delay (fun _ ->
               Vswitch.from_vm vss.(src) (Vnic.id_of_int 1) pkt)
            : Sim.handle)
      end
    done
  done;
  (match cluster with
  | None -> Sim.run base_sim ~until:1.0
  | Some c -> Sim.Sharded.run c ~until:1.0);
  {
    delivered = Fabric.delivered_to_vms fabric;
    lost = Fabric.lost fabric;
    forwarded =
      Array.map
        (fun vs -> Stats.Counter.value (Vswitch.counters vs).Vswitch.forwarded)
        vss;
    rx =
      Array.map
        (fun vs -> Stats.Counter.value (Vswitch.counters vs).Vswitch.rx_packets)
        vss;
  }

let test_fabric_shard_invariance () =
  let plain = run_variant Plain in
  let one = run_variant (Cluster 1) in
  let four = run_variant (Cluster 4) in
  let n = racks * per_rack in
  check_int "all pairs delivered (plain)" (n * (n - 1)) plain.delivered;
  check_int "nothing lost" 0 plain.lost;
  check_bool "plain = 1 shard" true (plain = one);
  check_bool "1 shard = 4 shards" true (one = four)

(* ------------------------------------------------------------------ *)
(* Region digest: the region-scale run must produce the same
   order-insensitive fingerprint for any shard count, and reproduce it
   on a same-seed rerun. *)

(* Small but busy: the compressed day is 8 s, so spikes must ramp in a
   couple of seconds and a fifth of the fleet is hot — otherwise a run
   this short sees no overload race at all. *)
let small_cfg =
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
    (* ... and the control loop must spin fast enough to win some of
       those 2 s races. *)
    report_interval = 0.1;
    scan_interval = 0.1;
  }

let test_region_shard_invariance () =
  let run shards = Region_sim.run { small_cfg with Region_sim.shards } in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  Region_check.equivalent r1 2 r2;
  Region_check.equivalent r1 4 r4;
  check_int "same-seed rerun reproduces" r4.Region_sim.digest (run 4).Region_sim.digest;
  check_bool "the controller acted" true (r1.Region_sim.activations > 0);
  check_bool "multi-shard run used the mailbox" true (r4.Region_sim.messages > 0);
  check_bool "single shard needs no mailbox" true (r1.Region_sim.messages = 0);
  check_bool "wheel re-arming reuses the pool" true
    (r4.Region_sim.pool_reused > r4.Region_sim.pool_fresh)

let test_region_before_after () =
  let ba = Region_sim.before_after { small_cfg with Region_sim.shards = 3 } in
  check_bool "spikes overload the unprotected region" true
    (ba.Region_sim.before.Region_sim.overloads > 0);
  check_bool "nezha resolves overloads" true
    (ba.Region_sim.after.Region_sim.overloads < ba.Region_sim.before.Region_sim.overloads);
  check_bool "controller activated offloads" true
    (ba.Region_sim.after.Region_sim.activations > 0);
  check_int "controller idle in the before run" 0
    (ba.Region_sim.before.Region_sim.activations)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sharded"
    [
      ( "fabric",
        [ Alcotest.test_case "shard-count invariance" `Quick test_fabric_shard_invariance ] );
      ( "region",
        [
          Alcotest.test_case "shard-count invariance" `Quick test_region_shard_invariance;
          Alcotest.test_case "before/after overloads" `Quick test_region_before_after;
        ] );
    ]
