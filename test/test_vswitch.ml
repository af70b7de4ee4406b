(* Tests for the vSwitch substrate: pre-action/state codecs, stateful NF
   semantics, the SmartNIC resource model, rulesets, and the traditional
   local datapath end-to-end. *)

open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)

let tuple ?(sport = 40000) ?(dport = 80) ?(proto = Five_tuple.Tcp) src dst =
  Five_tuple.make ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport ~proto

(* ------------------------------------------------------------------ *)
(* Pre_action codec *)

let test_pre_action_roundtrip () =
  let pre =
    {
      Pre_action.acl_tx = Acl.Permit;
      acl_rx = Acl.Deny;
      vni = 4242;
      peer_server = Some (ip "192.168.3.4");
      rate_limit_bps = Some 1_000_000;
      stats = Some { Pre_action.count_packets = true; count_bytes = false };
      stateful_decap = true;
      mirror = true;
    }
  in
  match Pre_action.decode (Pre_action.encode pre) with
  | Ok pre' -> check_bool "roundtrip" true (Pre_action.equal pre pre')
  | Error e -> Alcotest.fail e

let test_pre_action_minimal_small () =
  let pre = Pre_action.default ~vni:1 in
  let size = Pre_action.encoded_size pre in
  check_bool "compact encoding" true (size <= 4);
  match Pre_action.decode (Pre_action.encode pre) with
  | Ok pre' -> check_bool "roundtrip" true (Pre_action.equal pre pre')
  | Error e -> Alcotest.fail e

let test_pre_action_decode_garbage () =
  check_bool "empty is error" true
    (match Pre_action.decode Bytes.empty with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* State codec and size model *)

let test_state_roundtrip () =
  let st =
    {
      State.first_dir = Packet.Rx;
      tcp = Some State.Established;
      decap_src = Some (ip "10.9.9.9");
      stats = Some { State.packets = 12; bytes = 3400 };
    }
  in
  match State.decode (State.encode st) with
  | Ok st' -> check_bool "roundtrip" true (State.equal st st')
  | Error e -> Alcotest.fail e

let test_state_size_small () =
  (* Fig. 15: average state sizes are 5–8 B, far below the 64 B slot. *)
  let bare = State.init ~first_dir:Packet.Tx () in
  check_bool "bare state ≤ 2 B" true (State.size_bytes bare <= 2);
  let typical = { bare with State.tcp = Some State.Established; decap_src = Some (ip "1.2.3.4") } in
  check_bool "typical state 5–8 B" true
    (State.size_bytes typical >= 5 && State.size_bytes typical <= 8)

let test_state_establishing () =
  let st = State.init ~first_dir:Packet.Tx ~tcp:State.Establishing () in
  check_bool "establishing" true (State.is_establishing st);
  let st' = { st with State.tcp = Some State.Established } in
  check_bool "established is not establishing" false (State.is_establishing st')

(* ------------------------------------------------------------------ *)
(* Nf: stateful ACL semantics *)

let pre_tx_only =
  { (Pre_action.default ~vni:1) with Pre_action.acl_rx = Acl.Deny }

let run_nf ?state ~dir ?(flags = Packet.no_flags) pre =
  Nf.process ~pre ~state ~dir ~flags ~proto:Five_tuple.Tcp ~wire_bytes:100 ()

let test_nf_first_tx_initializes () =
  let verdict, out = run_nf ~dir:Packet.Tx ~flags:Packet.syn pre_tx_only in
  check_bool "tx permitted" true (verdict = Nf.Deliver);
  match out with
  | Nf.Init st ->
    check_bool "first dir tx" true (st.State.first_dir = Packet.Tx);
    check_bool "establishing" true (State.is_establishing st)
  | Nf.Update _ | Nf.Keep -> Alcotest.fail "expected Init"

let test_nf_return_traffic_allowed () =
  (* The canonical §5.1 case: RX pre-action is deny, but the session was
     initiated locally (first_dir = Tx), so responses must pass. *)
  let st = State.init ~first_dir:Packet.Tx ~tcp:State.Establishing () in
  let verdict, _ = run_nf ~state:st ~dir:Packet.Rx ~flags:Packet.syn_ack pre_tx_only in
  check_bool "response passes despite rx deny" true (verdict = Nf.Deliver)

let test_nf_unsolicited_dropped () =
  (* First packet arrives from outside while RX is denied: state records
     first_dir = Rx and the packet drops as unsolicited. *)
  let verdict, out = run_nf ~dir:Packet.Rx ~flags:Packet.syn pre_tx_only in
  check_bool "unsolicited dropped" true (verdict = Nf.Drop Nf.Unsolicited);
  (match out with
  | Nf.Init st -> check_bool "state still recorded" true (st.State.first_dir = Packet.Rx)
  | Nf.Update _ | Nf.Keep -> Alcotest.fail "expected Init");
  (* And follow-ups of that unsolicited flow keep dropping. *)
  let st = State.init ~first_dir:Packet.Rx () in
  let verdict, _ = run_nf ~state:st ~dir:Packet.Rx pre_tx_only in
  check_bool "still dropped" true (verdict = Nf.Drop Nf.Unsolicited)

let test_nf_tx_deny () =
  let pre = { (Pre_action.default ~vni:1) with Pre_action.acl_tx = Acl.Deny } in
  let verdict, _ = run_nf ~dir:Packet.Tx pre in
  check_bool "tx denied" true (verdict = Nf.Drop Nf.Acl_denied)

let test_nf_tcp_progression () =
  let pre = Pre_action.default ~vni:1 in
  let _, out = run_nf ~dir:Packet.Tx ~flags:Packet.syn pre in
  let st = match out with Nf.Init s -> s | _ -> Alcotest.fail "init" in
  check_bool "syn -> establishing" true (st.State.tcp = Some State.Establishing);
  let st =
    match run_nf ~state:st ~dir:Packet.Rx ~flags:Packet.syn_ack pre with
    | _, Nf.Keep -> st (* syn-ack does not advance the phase: no write-back *)
    | _, Nf.Update s -> s
    | _, Nf.Init _ -> Alcotest.fail "unexpected init"
  in
  check_bool "synack keeps establishing" true (st.State.tcp = Some State.Establishing);
  let _, out = run_nf ~state:st ~dir:Packet.Tx ~flags:Packet.ack pre in
  let st = match out with Nf.Update s -> s | _ -> Alcotest.fail "update2" in
  check_bool "ack -> established" true (st.State.tcp = Some State.Established);
  let _, out = run_nf ~state:st ~dir:Packet.Tx ~flags:Packet.fin_ack pre in
  let st = match out with Nf.Update s -> s | _ -> Alcotest.fail "update3" in
  check_bool "fin -> closing" true (st.State.tcp = Some State.Closing)

let test_nf_stats_accumulate () =
  let pre =
    {
      (Pre_action.default ~vni:1) with
      Pre_action.stats = Some { Pre_action.count_packets = true; count_bytes = true };
    }
  in
  let _, out = run_nf ~dir:Packet.Tx ~flags:Packet.syn pre in
  let st = match out with Nf.Init s -> s | _ -> Alcotest.fail "init" in
  (match st.State.stats with
  | Some s ->
    check_int "1 packet" 1 s.State.packets;
    check_int "100 bytes" 100 s.State.bytes
  | None -> Alcotest.fail "stats expected");
  let _, out = run_nf ~state:st ~dir:Packet.Rx pre in
  let st = match out with Nf.Update s -> s | _ -> Alcotest.fail "update" in
  match st.State.stats with
  | Some s ->
    check_int "2 packets" 2 s.State.packets;
    check_int "200 bytes" 200 s.State.bytes
  | None -> Alcotest.fail "stats expected"

let test_nf_keep_when_unchanged () =
  let pre = Pre_action.default ~vni:1 in
  let st = State.init ~first_dir:Packet.Tx () in
  (* UDP-ish: no flags, no stats -> nothing changes. *)
  let _, out =
    Nf.process ~pre ~state:(Some st) ~dir:Packet.Tx ~flags:Packet.no_flags
      ~proto:Five_tuple.Udp ~wire_bytes:50 ()
  in
  check_bool "keep" true (out = Nf.Keep)

let test_nf_stateful_decap_records_src () =
  let pre = { (Pre_action.default ~vni:1) with Pre_action.stateful_decap = true } in
  let _, out =
    Nf.process ~pre ~state:None ~dir:Packet.Rx ~flags:Packet.syn ~proto:Five_tuple.Tcp
      ~wire_bytes:60 ~decap_src:(ip "100.64.0.1") ()
  in
  match out with
  | Nf.Init st ->
    check_bool "decap src recorded" true
      (match st.State.decap_src with Some a -> Ipv4.equal a (ip "100.64.0.1") | None -> false)
  | Nf.Update _ | Nf.Keep -> Alcotest.fail "expected Init"

(* ------------------------------------------------------------------ *)
(* Smartnic *)

let mini_params =
  (* 1 Mcycle/s CPU so cycle counts translate to easy math. *)
  { Params.default with Params.cpu_hz = 1e6; queue_capacity = 4; mem_bytes = 1000 }

let test_nic_service_time () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  let done_at = ref (-1.0) in
  ignore (Smartnic.submit nic ~cycles:500_000 (fun s -> done_at := Sim.now s) : bool);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "0.5 s for 500k cycles" 0.5 !done_at

let test_nic_fifo_backlog () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  let finish = ref [] in
  for i = 1 to 3 do
    ignore
      (Smartnic.submit nic ~cycles:100_000 (fun s -> finish := (i, Sim.now s) :: !finish) : bool)
  done;
  Sim.run sim;
  let finish = List.rev !finish in
  check_bool "in order, serialized" true
    (match finish with
    | [ (1, t1); (2, t2); (3, t3) ] ->
      Float.abs (t1 -. 0.1) < 1e-9 && Float.abs (t2 -. 0.2) < 1e-9 && Float.abs (t3 -. 0.3) < 1e-9
    | _ -> false)

let test_nic_queue_overflow () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Smartnic.submit nic ~cycles:1000 (fun _ -> ()) then incr accepted
  done;
  check_int "only queue_capacity accepted" 4 !accepted;
  check_int "drops counted" 6 (Smartnic.jobs_dropped nic);
  Sim.run sim;
  check_int "accepted all completed" 4 (Smartnic.jobs_completed nic)

let test_nic_utilization_sample () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  (* 0.3 s of work across a 1 s window. *)
  ignore (Smartnic.submit nic ~cycles:300_000 (fun _ -> ()) : bool);
  Sim.run sim ~until:1.0;
  let u = Smartnic.utilization_since_last_sample nic in
  check_bool "~30% busy" true (Float.abs (u -. 0.3) < 0.02);
  (* Second sample with no new work: ~0. *)
  Sim.run sim ~until:2.0;
  let u2 = Smartnic.utilization_since_last_sample nic in
  check_bool "idle after" true (u2 < 0.01)

let test_nic_jobs_promote_little () =
  (* A long-lived card serving one short job per millisecond, with a
     minor collection between jobs: whatever a job leaves referenced
     from the card gets promoted.  Boxed busy-time floats would be 4
     words per job. *)
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:Params.default ~name:"n" in
  let completed = ref 0 in
  let on_done _ = incr completed in
  Sim.every sim ~period:0.001 (fun _ ->
      Gc.minor ();
      ignore (Smartnic.submit nic ~cycles:1000 on_done : bool);
      true);
  (* Warm up: the card, the sim and the periodic event are old by now. *)
  Sim.run sim ~until:0.1;
  let j0 = !completed and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Sim.run sim ~until:2.1;
  let jobs = !completed - j0 in
  let per_job = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int jobs in
  check_bool "served every job" true (jobs >= 1990);
  check_bool (Printf.sprintf "%.2f promoted words per job <= 1" per_job) true (per_job <= 1.0)

let test_nic_memory () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  check_bool "reserve ok" true (Smartnic.mem_reserve nic 600);
  check_bool "overcommit refused" false (Smartnic.mem_reserve nic 500);
  check_int "used" 600 (Smartnic.mem_used nic);
  Smartnic.mem_release nic 200;
  check_bool "fits now" true (Smartnic.mem_reserve nic 500);
  Alcotest.check_raises "over-release" (Invalid_argument "Smartnic.mem_release: more than reserved")
    (fun () -> Smartnic.mem_release nic 100_000)

let test_nic_crash_drops () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:mini_params ~name:"n" in
  Smartnic.crash nic;
  check_bool "crashed" true (Smartnic.is_crashed nic);
  check_bool "submit refused" false (Smartnic.submit nic ~cycles:10 (fun _ -> ()));
  Smartnic.recover nic;
  check_bool "submit works again" true (Smartnic.submit nic ~cycles:10 (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Ruleset *)

let test_ruleset_lookup_and_cost () =
  let acl = Acl.create () in
  Acl.add acl (Acl.rule ~priority:1 ~dst:(pfx "10.2.0.0/16") Acl.Deny);
  let rs = Ruleset.create ~vni:7 ~acl () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs
    { Vnic.Addr.vpc = Vpc.make 1; ip = ip "10.1.0.2" }
    (ip "192.168.0.2");
  (match Ruleset.lookup rs ~vpc:(Vpc.make 1)
           ~flow_tx:(tuple "10.1.0.1" "10.1.0.2")
   with
  | Some { Ruleset.pre; cycles } ->
    check_bool "permit both" true
      (pre.Pre_action.acl_tx = Acl.Permit && pre.Pre_action.acl_rx = Acl.Permit);
    check_bool "peer resolved" true
      (match pre.Pre_action.peer_server with
      | Some s -> Ipv4.equal s (ip "192.168.0.2")
      | None -> false);
    check_int "vni" 7 pre.Pre_action.vni;
    check_bool "cycles charged" true (cycles > 5 * Params.table_base_cycles)
  | None -> Alcotest.fail "expected route");
  (* A destination under the denied prefix: deny is a pre-action. *)
  match Ruleset.lookup rs ~vpc:(Vpc.make 1)
          ~flow_tx:(tuple "10.1.0.1" "10.2.0.9")
  with
  | Some { Ruleset.pre; _ } -> check_bool "tx deny cached" true (pre.Pre_action.acl_tx = Acl.Deny)
  | None -> Alcotest.fail "expected result"

let test_ruleset_unroutable () =
  let rs = Ruleset.create ~vni:7 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  check_bool "no route -> None" true
    (Ruleset.lookup rs ~vpc:(Vpc.make 1)
       ~flow_tx:(tuple "10.0.0.1" "172.16.0.1")
    = None)

let test_ruleset_unknown_mapping_goes_gateway () =
  let rs = Ruleset.create ~vni:7 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  match Ruleset.lookup rs ~vpc:(Vpc.make 1)
          ~flow_tx:(tuple "10.0.0.1" "10.0.0.2")
  with
  | Some { Ruleset.pre; _ } ->
    check_bool "peer unknown" true (pre.Pre_action.peer_server = None)
  | None -> Alcotest.fail "expected result"

let test_ruleset_generation_and_clone () =
  let rs = Ruleset.create ~vni:7 () in
  let g0 = Ruleset.generation rs in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  check_bool "mutation bumps generation" true (Ruleset.generation rs > g0);
  let dup = Ruleset.clone rs in
  Ruleset.add_mapping dup { Vnic.Addr.vpc = Vpc.make 1; ip = ip "10.0.0.9" } (ip "192.168.0.9");
  check_int "original unaffected" 0 (Ruleset.mapping_count rs);
  check_int "clone has entry" 1 (Ruleset.mapping_count dup)

let test_ruleset_memory_scales_with_mappings () =
  let rs = Ruleset.create ~vni:7 ~fixed_overhead_bytes:0 () in
  let m0 = Ruleset.memory_bytes rs in
  for i = 1 to 1000 do
    Ruleset.add_mapping rs
      { Vnic.Addr.vpc = Vpc.make 1; ip = Ipv4.add (ip "10.0.0.0") i }
      (ip "192.168.0.1")
  done;
  check_int "40 B per mapping entry" (m0 + 40_000) (Ruleset.memory_bytes rs)

let test_ruleset_extra_tables_cost () =
  let rs5 = Ruleset.create ~vni:1 () in
  let rs12 = Ruleset.create ~vni:1 ~extra_tables:7 () in
  check_int "5 base tables" 5 (Ruleset.table_count rs5);
  check_int "12 with advanced features" 12 (Ruleset.table_count rs12);
  Ruleset.add_route rs5 (pfx "0.0.0.0/0");
  Ruleset.add_route rs12 (pfx "0.0.0.0/0");
  let c5 =
    match Ruleset.lookup rs5 ~vpc:(Vpc.make 1)
            ~flow_tx:(tuple "1.1.1.1" "2.2.2.2")
    with
    | Some r -> r.Ruleset.cycles
    | None -> Alcotest.fail "r5"
  in
  let c12 =
    match Ruleset.lookup rs12 ~vpc:(Vpc.make 1)
            ~flow_tx:(tuple "1.1.1.1" "2.2.2.2")
    with
    | Some r -> r.Ruleset.cycles
    | None -> Alcotest.fail "r12"
  in
  check_int "7 extra tables cost" (7 * Params.table_base_cycles) (c12 - c5)

let mega_rs () =
  let acl = Acl.create () in
  Acl.add acl (Acl.rule ~priority:1 ~dst:(pfx "10.2.0.0/16") Acl.Deny);
  let rs = Ruleset.create ~vni:7 ~acl () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs
    { Vnic.Addr.vpc = Vpc.make 1; ip = ip "10.1.0.2" }
    (ip "192.168.0.2");
  rs

let mega_lookup rs t5 =
  match Ruleset.lookup rs ~vpc:(Vpc.make 1) ~flow_tx:t5 with
  | Some r -> r
  | None -> Alcotest.fail "expected lookup result"

let test_ruleset_megaflow_hit () =
  let rs = mega_rs () in
  let t5 = tuple "10.1.0.1" "10.1.0.2" in
  let first = mega_lookup rs t5 in
  check_int "first lookup misses" 0 (Ruleset.megaflow_hits rs);
  check_int "one miss" 1 (Ruleset.megaflow_misses rs);
  check_int "entry installed" 1 (Ruleset.megaflow_entries rs);
  let second = mega_lookup rs t5 in
  check_int "second lookup hits" 1 (Ruleset.megaflow_hits rs);
  check_int "hit costs one probe" Params.megaflow_hit_cycles second.Ruleset.cycles;
  check_bool "hit is cheaper than the pipeline walk" true
    (second.Ruleset.cycles < first.Ruleset.cycles);
  check_bool "same pre-action" true (second.Ruleset.pre = first.Ruleset.pre);
  (* A flow sharing the megaflow's masked key reuses the entry. *)
  ignore (mega_lookup rs (tuple "10.1.0.1" "10.1.0.2" ~sport:50000) : Ruleset.lookup_result);
  check_bool "masked reuse" true
    (Ruleset.megaflow_hits rs = 2 || Ruleset.megaflow_misses rs = 2)

let test_ruleset_megaflow_invalidated_on_bump () =
  let rs = mega_rs () in
  let t5 = tuple "10.1.0.1" "10.1.0.2" in
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  check_int "cached" 1 (Ruleset.megaflow_hits rs);
  (* Mutate the ACL through its own handle, then bump: the cached
     permit verdict must not survive. *)
  Acl.add (Ruleset.acl rs) (Acl.rule ~priority:0 ~dst:(pfx "10.1.0.2/32") Acl.Deny);
  Ruleset.bump_generation rs;
  let after = mega_lookup rs t5 in
  check_bool "new rule visible after bump" true (after.Ruleset.pre.Pre_action.acl_tx = Acl.Deny);
  check_int "flush forced a miss" 2 (Ruleset.megaflow_misses rs);
  (* Route/mapping mutations bump on their own. *)
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  let hits = Ruleset.megaflow_hits rs in
  Ruleset.add_route rs (pfx "172.16.0.0/12");
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  check_int "route change flushed the cache" hits (Ruleset.megaflow_hits rs)

let test_ruleset_megaflow_multi_target_not_cached () =
  let rs = Ruleset.create ~vni:7 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.set_mapping_multi rs
    { Vnic.Addr.vpc = Vpc.make 1; ip = ip "10.1.0.2" }
    [| ip "192.168.0.2"; ip "192.168.0.3" |];
  let t5 = tuple "10.1.0.1" "10.1.0.2" in
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  ignore (mega_lookup rs t5 : Ruleset.lookup_result);
  (* The FE pick hashes the full tuple, so a masked megaflow entry
     would pin every colliding flow to one FE — never cache it. *)
  check_int "no entries" 0 (Ruleset.megaflow_entries rs);
  check_int "no hits" 0 (Ruleset.megaflow_hits rs)

(* ------------------------------------------------------------------ *)
(* Vswitch end-to-end (local datapath) *)

type world = {
  sim : Sim.t;
  vs : Vswitch.t;
  to_net : Packet.t list ref;
  to_vm : (Vnic.id * Packet.t) list ref;
}

let vnic_a = Vnic.make ~id:1 ~vpc:(Vpc.make 5) ~ip:(ip "10.0.0.1") ~mac:(Mac.of_int64 0x1L)

let test_params =
  {
    Params.default with
    Params.cpu_hz = 1e8;
    mem_bytes = 8 * 1024 * 1024;
    queue_capacity = 64;
  }

let world_ruleset ?(acl_deny_rx = false) () =
  let acl = Acl.create () in
  if acl_deny_rx then
    Acl.add acl (Acl.rule ~priority:1 ~dst:(pfx "10.0.0.1/32") Acl.Deny);
  let rs = Ruleset.create ~vni:5 ~acl () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping rs
    { Vnic.Addr.vpc = Vpc.make 5; ip = ip "10.0.0.2" }
    (ip "192.168.0.2");
  rs

let make_world ?(params = test_params) ?(acl_deny_rx = false) () =
  let sim = Sim.create () in
  let vs =
    Vswitch.create ~sim ~params ~name:"vs0" ~underlay_ip:(ip "192.168.0.1")
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
  (match Vswitch.add_vnic vs vnic_a (world_ruleset ~acl_deny_rx ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "vnic must fit");
  { sim; vs; to_net; to_vm }

let tx_packet ?(flags = Packet.syn) ?(dst = "10.0.0.2") ?(sport = 40000) () =
  Packet.create ~vpc:(Vpc.make 5)
    ~flow:(tuple "10.0.0.1" dst ~sport)
    ~direction:Packet.Tx ~flags ()

let rx_packet ?(flags = Packet.syn) ?(src = "10.0.0.2") ?(sport = 50000) () =
  let p =
    Packet.create ~vpc:(Vpc.make 5)
      ~flow:(tuple src "10.0.0.1" ~sport ~dport:80)
      ~direction:Packet.Rx ~flags ()
  in
  Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2") ~outer_dst:(ip "192.168.0.1");
  p

let test_vs_tx_forwarded_and_encapped () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ());
  Sim.run w.sim ~until:1.0;
  check_int "one packet out" 1 (List.length !(w.to_net));
  let p = List.hd !(w.to_net) in
  (match p.Packet.vxlan with
  | Some v ->
    check_bool "vni" true (v.Packet.vni = 5);
    check_bool "outer dst is peer server" true (Ipv4.equal v.Packet.outer_dst (ip "192.168.0.2"))
  | None -> Alcotest.fail "must be encapsulated");
  check_int "slow path ran once" 1 (Stats.Counter.value (Vswitch.counters w.vs).Vswitch.slow_path_execs);
  check_int "session created" 1 (Vswitch.session_count w.vs vnic_a.Vnic.id)

let test_vs_fast_path_on_second_packet () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ());
  Sim.run w.sim ~until:1.0;
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.ack ());
  Sim.run w.sim ~until:2.0;
  let c = Vswitch.counters w.vs in
  check_int "one slow path" 1 (Stats.Counter.value c.Vswitch.slow_path_execs);
  check_int "one fast path" 1 (Stats.Counter.value c.Vswitch.fast_path_hits);
  check_int "two forwarded" 2 (List.length !(w.to_net))

let test_vs_unknown_peer_goes_gateway () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~dst:"10.0.0.77" ());
  Sim.run w.sim ~until:1.0;
  match !(w.to_net) with
  | [ p ] ->
    (match p.Packet.vxlan with
    | Some v ->
      check_bool "goes to gateway" true (Ipv4.equal v.Packet.outer_dst (ip "192.168.255.254"))
    | None -> Alcotest.fail "encap expected")
  | _ -> Alcotest.fail "expected one packet"

let test_vs_unroutable_dropped () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~dst:"172.16.0.1" ());
  Sim.run w.sim ~until:1.0;
  check_int "no output" 0 (List.length !(w.to_net));
  check_int "no-route drop" 1 (Vswitch.drop_count w.vs Nf.No_route)

let test_vs_rx_delivered_to_vm () =
  let w = make_world () in
  Vswitch.from_net w.vs (rx_packet ());
  Sim.run w.sim ~until:1.0;
  check_int "delivered" 1 (List.length !(w.to_vm));
  let vid, _ = List.hd !(w.to_vm) in
  check_bool "right vnic" true (Vnic.equal_id vid vnic_a.Vnic.id)

let test_vs_rx_unsolicited_dropped_but_response_flows () =
  let w = make_world ~acl_deny_rx:true () in
  (* Unsolicited inbound SYN: dropped. *)
  Vswitch.from_net w.vs (rx_packet ~sport:50001 ());
  Sim.run w.sim ~until:1.0;
  check_int "unsolicited dropped" 1 (Vswitch.drop_count w.vs Nf.Unsolicited);
  check_int "nothing delivered" 0 (List.length !(w.to_vm));
  (* Locally-initiated connection: responses pass the deny. *)
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:40077 ());
  Sim.run w.sim ~until:2.0;
  let resp =
    let p =
      Packet.create ~vpc:(Vpc.make 5)
        ~flow:(tuple "10.0.0.2" "10.0.0.1" ~sport:80 ~dport:40077)
        ~direction:Packet.Rx ~flags:Packet.syn_ack ()
    in
    Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2") ~outer_dst:(ip "192.168.0.1");
    p
  in
  Vswitch.from_net w.vs resp;
  Sim.run w.sim ~until:3.0;
  check_int "response delivered" 1 (List.length !(w.to_vm))

let test_vs_no_vnic_drop () =
  let w = make_world () in
  let p =
    Packet.create ~vpc:(Vpc.make 5)
      ~flow:(tuple "10.0.0.2" "10.0.0.99")
      ~direction:Packet.Rx ~flags:Packet.syn ()
  in
  Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2") ~outer_dst:(ip "192.168.0.1");
  Vswitch.from_net w.vs p;
  Sim.run w.sim ~until:1.0;
  check_int "no-vnic drop" 1 (Vswitch.drop_count w.vs Nf.No_vnic)

let test_vs_net_hook_handles_foreign () =
  let w = make_world () in
  let seen = ref 0 in
  Vswitch.set_net_hook w.vs (Some (fun _ ~outer:_ -> incr seen; `Handled));
  let p =
    Packet.create ~vpc:(Vpc.make 5)
      ~flow:(tuple "10.0.0.2" "10.0.0.99")
      ~direction:Packet.Rx ~flags:Packet.syn ()
  in
  Packet.encap_vxlan p ~vni:5 ~outer_src:(ip "192.168.0.2") ~outer_dst:(ip "192.168.0.1");
  Vswitch.from_net w.vs p;
  check_int "hook saw it" 1 !seen;
  check_int "no drop" 0 (Vswitch.drop_count w.vs Nf.No_vnic)

let test_vs_intercept_tx () =
  let w = make_world () in
  let grabbed = ref 0 in
  Vswitch.set_intercept w.vs vnic_a.Vnic.id
    (Some
       {
         Vswitch.on_tx = (fun _ -> incr grabbed; `Handled);
         on_rx = (fun _ -> `Continue);
         on_tx_batch = None;
       });
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ());
  check_int "intercepted" 1 !grabbed;
  check_int "nothing forwarded" 0 (List.length !(w.to_net))

let test_vs_session_aging_frees_memory () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.no_flags ());
  Sim.run w.sim ~until:0.5;
  check_int "session exists" 1 (Vswitch.session_count w.vs vnic_a.Vnic.id);
  let used_with = Smartnic.mem_used (Vswitch.nic w.vs) in
  (* Idle well past the 8 s aging. *)
  Sim.run w.sim ~until:20.0;
  check_int "session aged out" 0 (Vswitch.session_count w.vs vnic_a.Vnic.id);
  check_bool "memory freed" true (Smartnic.mem_used (Vswitch.nic w.vs) < used_with)

let test_vs_syn_session_ages_early () =
  let w = make_world () in
  (* SYN-only session (no handshake completion): short aging (2 s). *)
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.syn ());
  Sim.run w.sim ~until:0.5;
  check_int "exists" 1 (Vswitch.session_count w.vs vnic_a.Vnic.id);
  Sim.run w.sim ~until:5.0;
  check_int "gone before normal aging" 0 (Vswitch.session_count w.vs vnic_a.Vnic.id)

let test_vs_table_full () =
  (* Tiny memory: rule tables fit, few sessions do. *)
  let params = { test_params with Params.mem_bytes = 2 * 1024 * 1024 + 3000 } in
  let w = make_world ~params () in
  for i = 0 to 49 do
    Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:(41000 + i) ~flags:Packet.no_flags ())
  done;
  Sim.run w.sim ~until:5.0;
  check_bool "some table-full drops" true (Vswitch.drop_count w.vs Nf.Table_full > 0);
  check_bool "table did not exceed budget" true
    (Smartnic.mem_used (Vswitch.nic w.vs) <= Smartnic.mem_capacity (Vswitch.nic w.vs))

let test_vs_add_vnic_no_memory () =
  let params = { test_params with Params.mem_bytes = 1024 } in
  let sim = Sim.create () in
  let vs =
    Vswitch.create ~sim ~params ~name:"tiny" ~underlay_ip:(ip "192.168.0.9")
      ~gateway:(ip "192.168.255.254") ()
  in
  let rs = Ruleset.create ~vni:1 () in
  check_bool "vnic rejected" true (Vswitch.add_vnic vs vnic_a rs = Error `No_memory);
  check_int "none added" 0 (Vswitch.vnic_count vs)

let test_vs_drop_and_restore_ruleset () =
  let w = make_world () in
  (* Create one session so there is a cached flow + state. *)
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ());
  Sim.run w.sim ~until:0.5;
  let before = Smartnic.mem_used (Vswitch.nic w.vs) in
  Vswitch.drop_ruleset w.vs vnic_a.Vnic.id;
  check_bool "rule memory freed (≥2MB minus residual)" true
    (before - Smartnic.mem_used (Vswitch.nic w.vs) > 1024 * 1024);
  check_bool "ruleset gone" true (Vswitch.ruleset w.vs vnic_a.Vnic.id = None);
  (* The session survives as a state-only entry. *)
  (match
     Vswitch.find_session w.vs vnic_a.Vnic.id
       (Flow_key.of_packet_fields ~vpc:(Vpc.make 5) ~flow:(tuple "10.0.0.1" "10.0.0.2"))
   with
  | Some s ->
    check_bool "pre dropped" true (s.Vswitch.pre = None);
    check_bool "state kept" true (s.Vswitch.state <> None)
  | None -> Alcotest.fail "session should survive as state-only");
  (* Restore (fallback). *)
  let rs = Ruleset.create ~vni:5 () in
  Ruleset.add_route rs (pfx "10.0.0.0/8");
  check_bool "restore ok" true (Vswitch.restore_ruleset w.vs vnic_a.Vnic.id rs = Ok ());
  check_bool "ruleset back" true (Vswitch.ruleset w.vs vnic_a.Vnic.id <> None)

let test_vs_generation_invalidation () =
  let w = make_world () in
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ());
  Sim.run w.sim ~until:0.5;
  let rs = Option.get (Vswitch.ruleset w.vs vnic_a.Vnic.id) in
  (* Rule change: cached flows become stale and get invalidated. *)
  Ruleset.add_route rs (pfx "172.16.0.0/12");
  Vswitch.invalidate_cached_flows w.vs vnic_a.Vnic.id;
  check_int "stale cached flow removed" 0 (Vswitch.session_count w.vs vnic_a.Vnic.id);
  (* Next packet re-runs the slow path and repopulates. *)
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.ack ());
  Sim.run w.sim ~until:1.0;
  check_int "two slow paths total" 2
    (Stats.Counter.value (Vswitch.counters w.vs).Vswitch.slow_path_execs)

let test_vs_queue_overflow_under_burst () =
  let params = { test_params with Params.cpu_hz = 1e5; queue_capacity = 8 } in
  let w = make_world ~params () in
  for i = 0 to 99 do
    Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:(42000 + i) ())
  done;
  Sim.run w.sim ~until:60.0;
  check_bool "overflow drops" true (Vswitch.drop_count w.vs Nf.Queue_overflow > 0);
  check_bool "some got through" true (List.length !(w.to_net) > 0)


(* A session dies while a packet that resolved it is in SmartNIC
   service.  The commit finds its handle dead and takes the key path,
   as if it had never held one: an [Update] stores the session afresh
   (a new entry, counted as created) in whatever table the vNIC has
   now; a [Keep] finds nothing to touch.  Either way the packet is
   forwarded and the NIC's memory matches the tables. *)
let tx_key = Flow_key.of_packet_fields ~vpc:(Vpc.make 5) ~flow:(tuple "10.0.0.1" "10.0.0.2")

let in_service_kill ~established ~kill () =
  let w = make_world () in
  let vid = vnic_a.Vnic.id in
  let c = Vswitch.counters w.vs in
  Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.syn ());
  Sim.run w.sim ~until:0.5;
  (* The handshake's ACK moves the session to established (an [Update]);
     a later ACK changes nothing (a [Keep]). *)
  if established then begin
    Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.ack ());
    Sim.run w.sim ~until:1.0
  end;
  let hits = Stats.Counter.value c.Vswitch.fast_path_hits in
  Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.ack ());
  check_int "resolved as a fast-path hit" (hits + 1) (Stats.Counter.value c.Vswitch.fast_path_hits);
  kill w;
  check_bool "session gone before the commit" true (Vswitch.find_session w.vs vid tx_key = None);
  let created = Stats.Counter.value c.Vswitch.sessions_created in
  let forwarded = Stats.Counter.value c.Vswitch.forwarded in
  Sim.run w.sim ~until:(Sim.now w.sim +. 0.5);
  check_int "forwarded" (forwarded + 1) (Stats.Counter.value c.Vswitch.forwarded);
  (match Vswitch.find_session w.vs vid tx_key with
  | Some s ->
    check_bool "update re-creates" false established;
    check_bool "established state" true
      (match s.Vswitch.state with
      | Some st -> st.State.tcp = Some State.Established
      | None -> false);
    check_int "counted as created" (created + 1)
      (Stats.Counter.value c.Vswitch.sessions_created)
  | None ->
    check_bool "keep touches nothing" true established;
    check_int "nothing created" created (Stats.Counter.value c.Vswitch.sessions_created));
  check_int "NIC memory matches the tables" (Vswitch.vnic_memory_bytes w.vs vid)
    (Smartnic.mem_used (Vswitch.nic w.vs))

let kill_routes =
  let vid = vnic_a.Vnic.id in
  [
    ("wipe_volatile", fun w -> Vswitch.wipe_volatile w.vs);
    ("remove_session", fun w -> ignore (Vswitch.remove_session w.vs vid tx_key : bool));
    ( "invalidate_cached_flows",
      fun w ->
        Ruleset.bump_generation (Option.get (Vswitch.ruleset w.vs vid));
        Vswitch.invalidate_cached_flows w.vs vid );
    ( "vnic remove and re-add",
      fun w ->
        Vswitch.remove_vnic w.vs vid;
        check_bool "re-added" true (Vswitch.add_vnic w.vs vnic_a (world_ruleset ()) = Ok ()) );
  ]

let test_vs_handle_dies_in_service () =
  List.iter
    (fun (_, kill) ->
      in_service_kill ~established:false ~kill ();
      in_service_kill ~established:true ~kill ())
    kill_routes

(* The aging route: the packet resolves a microsecond before the aging
   pump that expires its session, and commits after it.  A SYN-state
   session (2 s aging, created at ~0 s) goes at the 4 s pump; an
   established one (8 s aging from ~0.5 s) at the 10 s pump. *)
let test_vs_handle_dies_by_aging () =
  let run ~established ~pump =
    let w = make_world () in
    let vid = vnic_a.Vnic.id in
    let c = Vswitch.counters w.vs in
    Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.syn ());
    Sim.run w.sim ~until:0.5;
    if established then Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.ack ());
    Sim.run w.sim ~until:(pump -. 1e-6);
    check_bool "alive just before the pump" true (Vswitch.find_session w.vs vid tx_key <> None);
    let created = Stats.Counter.value c.Vswitch.sessions_created in
    Vswitch.from_vm w.vs vid (tx_packet ~flags:Packet.ack ());
    Sim.run w.sim ~until:pump;
    check_bool "aged out while in service" true (Vswitch.find_session w.vs vid tx_key = None);
    Sim.run w.sim ~until:(pump +. 0.5);
    check_bool "update re-creates, keep does not" (not established)
      (Vswitch.find_session w.vs vid tx_key <> None);
    check_int "created count" (if established then created else created + 1)
      (Stats.Counter.value c.Vswitch.sessions_created);
    check_int "NIC memory matches the tables" (Vswitch.vnic_memory_bytes w.vs vid)
      (Smartnic.mem_used (Vswitch.nic w.vs))
  in
  run ~established:false ~pump:4.0;
  run ~established:true ~pump:10.0

let test_vs_flow_logging () =
  let w = make_world () in
  (* Arm statistics for the peer prefix so sessions count traffic. *)
  let rs = Option.get (Vswitch.ruleset w.vs vnic_a.Vnic.id) in
  ignore rs;
  let stats_rs =
    Ruleset.create ~vni:5
      ~stats_rules:[ (pfx "10.0.0.0/8", { Pre_action.count_packets = true; count_bytes = true }) ]
      ()
  in
  Ruleset.add_route stats_rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping stats_rs { Vnic.Addr.vpc = Vpc.make 5; ip = ip "10.0.0.2" }
    (ip "192.168.0.2");
  Vswitch.drop_ruleset w.vs vnic_a.Vnic.id;
  (match Vswitch.restore_ruleset w.vs vnic_a.Vnic.id stats_rs with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "restore");
  let records = ref [] in
  Vswitch.set_flow_log_sink w.vs (Some (fun r -> records := r :: !records));
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.no_flags ());
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~flags:Packet.no_flags ());
  Sim.run w.sim ~until:0.5;
  (* Idle past aging: the counted session exits and emits a record. *)
  Sim.run w.sim ~until:20.0;
  check_int "one record" 1 (List.length !records);
  (match !records with
  | [ r ] ->
    check_int "two packets counted" 2 r.Vswitch.packets;
    check_bool "bytes counted" true (r.Vswitch.bytes > 0);
    check_bool "direction recorded" true (r.Vswitch.first_dir = Packet.Tx)
  | _ -> Alcotest.fail "expected one record");
  check_int "counter agrees" 1 (Vswitch.flow_records_emitted w.vs)

let test_vs_mirroring () =
  let w = make_world () in
  let mirror_rs = Ruleset.create ~vni:5 ~mirror:true () in
  Ruleset.add_route mirror_rs (pfx "10.0.0.0/8");
  Ruleset.add_mapping mirror_rs { Vnic.Addr.vpc = Vpc.make 5; ip = ip "10.0.0.2" }
    (ip "192.168.0.2");
  Vswitch.drop_ruleset w.vs vnic_a.Vnic.id;
  (match Vswitch.restore_ruleset w.vs vnic_a.Vnic.id mirror_rs with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "restore");
  (* Without a collector nothing is copied. *)
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:40100 ());
  Sim.run w.sim ~until:0.5;
  check_int "no collector, no copy" 1 (List.length !(w.to_net));
  (* With a collector every delivered packet is duplicated. *)
  Vswitch.set_mirror_target w.vs (Some (ip "192.168.0.99"));
  Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:40101 ());
  Sim.run w.sim ~until:1.0;
  check_int "original + mirror" 3 (List.length !(w.to_net));
  check_int "mirror counter" 1 (Vswitch.packets_mirrored w.vs);
  let mirror_pkt =
    List.find
      (fun p ->
        match p.Packet.vxlan with
        | Some v -> Ipv4.equal v.Packet.outer_dst (ip "192.168.0.99")
        | None -> false)
      !(w.to_net)
  in
  check_bool "mirror goes to the collector" true (mirror_pkt.Packet.payload_len = 0)


let test_vs_iter_sessions_and_version () =
  let w = make_world () in
  check_int "default version" 0 (Vswitch.software_version w.vs);
  Vswitch.set_software_version w.vs 3;
  check_int "version set" 3 (Vswitch.software_version w.vs);
  for i = 0 to 4 do
    Vswitch.from_vm w.vs vnic_a.Vnic.id (tx_packet ~sport:(40200 + i) ~flags:Packet.no_flags ())
  done;
  Sim.run w.sim ~until:0.5;
  let seen = ref 0 in
  Vswitch.iter_sessions w.vs vnic_a.Vnic.id (fun _ session ->
      incr seen;
      check_bool "entries carry pre-actions" true (session.Vswitch.pre <> None));
  check_int "iterated all sessions" 5 !seen

let test_vs_vnic_classifier_gauges () =
  let module T = Nezha_telemetry.Telemetry in
  let w = make_world () in
  let reg = T.create () in
  Vswitch.register_telemetry w.vs reg;
  let prefix = "vswitch/vs0/vnic/1/" in
  (* The seed ruleset is small, so the Auto policy serves it from the
     tuple-space backend; the gauge reports that decision. *)
  check_bool "backend gauge reports tss" true
    (T.read_gauge reg (prefix ^ "classifier_backend")
    = Some (float_of_int (Classifier.backend_code Classifier.Tuple_space)));
  (match T.read_gauge reg (prefix ^ "classifier_memory_bytes") with
  | Some b -> check_bool "memory gauge positive" true (b >= 0.0)
  | None -> Alcotest.fail "memory gauge missing");
  check_bool "accessor agrees" true
    (Vswitch.vnic_classifier_backend w.vs vnic_a.Vnic.id = Some Classifier.Tuple_space);
  (* Removing the vNIC unregisters its whole gauge prefix. *)
  Vswitch.remove_vnic w.vs vnic_a.Vnic.id;
  check_bool "gauges gone after removal" true
    (T.read_gauge reg (prefix ^ "classifier_backend") = None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vswitch"
    [
      ( "pre_action",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_pre_action_roundtrip;
          Alcotest.test_case "minimal is compact" `Quick test_pre_action_minimal_small;
          Alcotest.test_case "decode garbage" `Quick test_pre_action_decode_garbage;
        ] );
      ( "state",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_state_roundtrip;
          Alcotest.test_case "variable size small" `Quick test_state_size_small;
          Alcotest.test_case "establishing predicate" `Quick test_state_establishing;
        ] );
      ( "nf",
        [
          Alcotest.test_case "first tx initializes" `Quick test_nf_first_tx_initializes;
          Alcotest.test_case "return traffic allowed" `Quick test_nf_return_traffic_allowed;
          Alcotest.test_case "unsolicited dropped" `Quick test_nf_unsolicited_dropped;
          Alcotest.test_case "tx deny" `Quick test_nf_tx_deny;
          Alcotest.test_case "tcp progression" `Quick test_nf_tcp_progression;
          Alcotest.test_case "stats accumulate" `Quick test_nf_stats_accumulate;
          Alcotest.test_case "keep when unchanged" `Quick test_nf_keep_when_unchanged;
          Alcotest.test_case "stateful decap records src" `Quick test_nf_stateful_decap_records_src;
        ] );
      ( "smartnic",
        [
          Alcotest.test_case "service time" `Quick test_nic_service_time;
          Alcotest.test_case "fifo backlog" `Quick test_nic_fifo_backlog;
          Alcotest.test_case "queue overflow" `Quick test_nic_queue_overflow;
          Alcotest.test_case "utilization sampling" `Quick test_nic_utilization_sample;
          Alcotest.test_case "memory budget" `Quick test_nic_memory;
          Alcotest.test_case "crash semantics" `Quick test_nic_crash_drops;
          Alcotest.test_case "jobs promote little" `Quick test_nic_jobs_promote_little;
        ] );
      ( "ruleset",
        [
          Alcotest.test_case "lookup and cost" `Quick test_ruleset_lookup_and_cost;
          Alcotest.test_case "unroutable" `Quick test_ruleset_unroutable;
          Alcotest.test_case "unknown mapping -> gateway" `Quick
            test_ruleset_unknown_mapping_goes_gateway;
          Alcotest.test_case "generation and clone" `Quick test_ruleset_generation_and_clone;
          Alcotest.test_case "memory scales with mappings" `Quick
            test_ruleset_memory_scales_with_mappings;
          Alcotest.test_case "extra tables cost" `Quick test_ruleset_extra_tables_cost;
          Alcotest.test_case "megaflow hit" `Quick test_ruleset_megaflow_hit;
          Alcotest.test_case "megaflow invalidated on bump" `Quick
            test_ruleset_megaflow_invalidated_on_bump;
          Alcotest.test_case "megaflow skips multi-target peers" `Quick
            test_ruleset_megaflow_multi_target_not_cached;
        ] );
      ( "vswitch",
        [
          Alcotest.test_case "tx forwarded and encapped" `Quick test_vs_tx_forwarded_and_encapped;
          Alcotest.test_case "fast path on second packet" `Quick test_vs_fast_path_on_second_packet;
          Alcotest.test_case "unknown peer via gateway" `Quick test_vs_unknown_peer_goes_gateway;
          Alcotest.test_case "unroutable dropped" `Quick test_vs_unroutable_dropped;
          Alcotest.test_case "rx delivered to vm" `Quick test_vs_rx_delivered_to_vm;
          Alcotest.test_case "stateful acl end-to-end" `Quick
            test_vs_rx_unsolicited_dropped_but_response_flows;
          Alcotest.test_case "no vnic drop" `Quick test_vs_no_vnic_drop;
          Alcotest.test_case "net hook" `Quick test_vs_net_hook_handles_foreign;
          Alcotest.test_case "tx intercept" `Quick test_vs_intercept_tx;
          Alcotest.test_case "session aging frees memory" `Quick test_vs_session_aging_frees_memory;
          Alcotest.test_case "syn session ages early" `Quick test_vs_syn_session_ages_early;
          Alcotest.test_case "table full" `Quick test_vs_table_full;
          Alcotest.test_case "vnic memory rejection" `Quick test_vs_add_vnic_no_memory;
          Alcotest.test_case "drop and restore ruleset" `Quick test_vs_drop_and_restore_ruleset;
          Alcotest.test_case "generation invalidation" `Quick test_vs_generation_invalidation;
          Alcotest.test_case "queue overflow under burst" `Quick test_vs_queue_overflow_under_burst;
          Alcotest.test_case "handle dies in service" `Quick test_vs_handle_dies_in_service;
          Alcotest.test_case "handle dies by aging" `Quick test_vs_handle_dies_by_aging;
          Alcotest.test_case "flow logging" `Quick test_vs_flow_logging;
          Alcotest.test_case "traffic mirroring" `Quick test_vs_mirroring;
          Alcotest.test_case "session iteration and version" `Quick test_vs_iter_sessions_and_version;
          Alcotest.test_case "per-vnic classifier gauges" `Quick test_vs_vnic_classifier_gauges;
        ] );
    ]
