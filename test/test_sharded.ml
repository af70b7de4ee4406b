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
(* Known answers: every simulated output of two seeded regions, pinned
   bit for bit.  How the engine executes a run (how many events, how
   many queue slots) may change; what the run computes may not, so
   [events] and the pool counters are the only fields left out. *)

let kat_cfg = { Region_sim.default_config with Region_sim.racks = 24; seed = 3 }
let kat_storm = { kat_cfg with Region_sim.crash_rate = 2.0; ctl_crash_at = Some 12.0 }

type known = {
  k_vnics : int;
  k_flows : int;
  k_hotspots : int;
  k_messages : int;
  k_ticks : int;
  k_expiries : int;
  k_overloads : int;
  k_overload_ticks : int;
  k_detections : int;
  k_activations : int;
  k_packets : int64;  (** bits of [packets_modeled] *)
  k_crashes : int;
  k_restarts : int;
  k_mttr : int64 * int64;  (** bits of P50, P99 *)
  k_blackholed : int;
  k_takeovers : int;
  k_digest : int;
}

let check_known name (k : known) (r : Region_sim.result) =
  let what s = name ^ ": " ^ s and bits = Int64.bits_of_float in
  let check_bits = Alcotest.(check int64) in
  check_int (what "servers") 192 r.Region_sim.servers;
  check_int (what "vnics modeled") k.k_vnics r.vnics_modeled;
  check_int (what "flows modeled") k.k_flows r.flows_modeled;
  check_int (what "hotspots") k.k_hotspots r.hotspots;
  check_int (what "messages") k.k_messages r.messages;
  check_int (what "ticks") k.k_ticks r.ticks;
  check_int (what "flow expiries") k.k_expiries r.flow_expiries;
  check_int (what "overloads") k.k_overloads r.overloads;
  check_int (what "overload ticks") k.k_overload_ticks r.overload_ticks;
  check_int (what "detections") k.k_detections r.detections;
  check_int (what "activations") k.k_activations r.activations;
  check_bits (what "packets modeled") k.k_packets (bits r.packets_modeled);
  check_int (what "crashes") k.k_crashes r.crashes;
  check_int (what "restarts") k.k_restarts r.restarts;
  check_bits (what "MTTR P50") (fst k.k_mttr) (bits r.mttr_p50);
  check_bits (what "MTTR P99") (snd k.k_mttr) (bits r.mttr_p99);
  check_int (what "blackholed ticks") k.k_blackholed r.blackholed_ticks;
  check_int (what "late blackholed") 0 r.late_blackholed;
  check_int (what "takeovers") k.k_takeovers r.ctl_takeovers;
  check_int (what "digest") k.k_digest r.digest

let test_region_known_answer () =
  check_known "plain"
    {
      k_vnics = 810;
      k_flows = 2239827;
      k_hotspots = 5;
      k_messages = 20353;
      k_ticks = 239088;
      k_expiries = 91842;
      k_overloads = 2;
      k_overload_ticks = 282;
      k_detections = 5;
      k_activations = 5;
      k_packets = 4734015056095166297L;
      k_crashes = 0;
      k_restarts = 0;
      k_mttr = (0L, 0L);
      k_blackholed = 0;
      k_takeovers = 0;
      k_digest = 3995599925359677699;
    }
    (Region_sim.run kat_cfg);
  check_known "storm"
    {
      k_vnics = 810;
      k_flows = 2239827;
      k_hotspots = 5;
      k_messages = 19771;
      k_ticks = 239088;
      k_expiries = 91929;
      k_overloads = 6;
      k_overload_ticks = 302;
      k_detections = 5;
      k_activations = 5;
      k_packets = 4733705800454775840L;
      k_crashes = 343;
      k_restarts = 343;
      k_mttr = (4607722850755301864L, 4611624403564280392L);
      k_blackholed = 14478;
      k_takeovers = 1;
      k_digest = -2748609289297473537;
    }
    (Region_sim.run kat_storm)

(* Work counts: the events the engine executes for the same two
   regions.  [known answers] leaves them out because an engine change
   may move them without changing what a run computes; pinning them
   here makes every such move visible.  A change that moves these
   counts says why in CHANGES.md. *)
let test_region_work_counts () =
  check_int "plain: events" 195697 (Region_sim.run kat_cfg).Region_sim.events;
  check_int "storm: events" 196162 (Region_sim.run kat_storm).Region_sim.events

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
          Alcotest.test_case "known answers" `Quick test_region_known_answer;
          Alcotest.test_case "work counts" `Quick test_region_work_counts;
        ] );
    ]
