(* Tests for the §7 "experience" features: rate limiting, tenant rule
   updates, BE relocation (VM live migration), elephant-flow pinning,
   the BDF budget — plus codec robustness properties. *)

open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_workloads
open Nezha_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Token bucket *)

let test_bucket_basics () =
  let b = Token_bucket.create ~rate_bytes_per_s:1000.0 ~burst_bytes:500.0 in
  check_bool "burst available" true (Token_bucket.take b ~now:0.0 ~bytes:500);
  check_bool "empty now" false (Token_bucket.take b ~now:0.0 ~bytes:1);
  (* 0.1 s refills 100 bytes. *)
  check_bool "partial refill" true (Token_bucket.take b ~now:0.1 ~bytes:100);
  check_bool "but no more" false (Token_bucket.take b ~now:0.1 ~bytes:1)

let test_bucket_burst_cap () =
  let b = Token_bucket.create ~rate_bytes_per_s:1000.0 ~burst_bytes:200.0 in
  ignore (Token_bucket.take b ~now:0.0 ~bytes:200 : bool);
  (* A long idle period must not accumulate beyond the burst. *)
  check_bool "capped at burst" true (Token_bucket.available b ~now:100.0 <= 200.0);
  check_bool "take burst" true (Token_bucket.take b ~now:100.0 ~bytes:200);
  check_bool "not more" false (Token_bucket.take b ~now:100.0 ~bytes:10)

let test_bucket_invalid () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Token_bucket.create: rate and burst must be positive") (fun () ->
      ignore (Token_bucket.create ~rate_bytes_per_s:0.0 ~burst_bytes:1.0 : Token_bucket.t))

let prop_bucket_never_exceeds_rate =
  QCheck.Test.make ~name:"long-run admitted bytes never exceed rate*time + burst" ~count:100
    QCheck.(make Gen.(list_size (int_range 10 200) (pair (float_range 0.001 0.1) (int_range 1 2000))))
    (fun steps ->
      let rate = 10_000.0 and burst = 1_000.0 in
      let b = Token_bucket.create ~rate_bytes_per_s:rate ~burst_bytes:burst in
      let now = ref 0.0 and admitted = ref 0 in
      List.iter
        (fun (dt, bytes) ->
          now := !now +. dt;
          if Token_bucket.take b ~now:!now ~bytes then admitted := !admitted + bytes)
        steps;
      float_of_int !admitted <= (rate *. !now) +. burst +. 1e-6)

(* ------------------------------------------------------------------ *)
(* vNIC rate limiting end-to-end *)

let blast_udp t ~packets ~payload =
  let client = t.Testbed.clients.(0) in
  let flow =
    Five_tuple.make ~src:Testbed.heavy_ip ~dst:client.Tcp_crr.ip ~src_port:7000 ~dst_port:7001
      ~proto:Five_tuple.Udp
  in
  let rec send i sim =
    if i < packets then begin
      Vswitch.from_vm t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id
        (Packet.create ~vpc:t.Testbed.vpc ~flow ~direction:Packet.Tx ~payload_len:payload ());
      ignore (Sim.schedule sim ~delay:0.001 (send (i + 1)) : Sim.handle)
    end
  in
  ignore (Sim.schedule t.Testbed.sim ~delay:0.0 (send 0) : Sim.handle)

let test_rate_limit_local () =
  let t = Testbed.create () in
  (* ~1000 packets of ~550 wire bytes over 1 s = ~4.4 Mbit/s; allow 1/4. *)
  Vswitch.set_rate_limit t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id ~bps:1.1e6
    ~burst_bytes:4000.0;
  blast_udp t ~packets:1000 ~payload:500;
  Sim.run t.Testbed.sim ~until:2.0;
  let dropped = Vswitch.drop_count t.Testbed.server.Tcp_crr.vs Nf.Rate_limited in
  let delivered = Vm.packets_delivered t.Testbed.clients.(0).Tcp_crr.vm in
  check_bool "policer dropped" true (dropped > 500);
  check_bool "some passed" true (delivered > 100);
  check_int "conservation" 1000 (dropped + delivered)

let test_rate_limit_survives_offload () =
  (* The §2.3.3 point: after offloading to 4 FEs, the single BE bucket
     still enforces the VM-level limit exactly — no FE coordination. *)
  let t = Testbed.create () in
  ignore (Testbed.offload t () : Controller.offload);
  Vswitch.set_rate_limit t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id ~bps:1.1e6
    ~burst_bytes:4000.0;
  blast_udp t ~packets:1000 ~payload:500;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
  let dropped = Vswitch.drop_count t.Testbed.server.Tcp_crr.vs Nf.Rate_limited in
  let delivered = Vm.packets_delivered t.Testbed.clients.(0).Tcp_crr.vm in
  check_bool "still policed after offload" true (dropped > 500);
  check_int "conservation across the FE hop" 1000 (dropped + delivered)

(* ------------------------------------------------------------------ *)
(* Tenant rule updates (§3.2.2) *)

let client_syn t ~sport =
  Packet.create ~vpc:t.Testbed.vpc
    ~flow:
      (Five_tuple.make ~src:t.Testbed.clients.(0).Tcp_crr.ip ~dst:Testbed.heavy_ip
         ~src_port:sport ~dst_port:80 ~proto:Five_tuple.Tcp)
    ~direction:Packet.Tx ~flags:Packet.syn ()

let test_update_tenant_rules_propagates () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (* Before the change: inbound connects fine. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:41001);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "delivered before" 1 (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm);
  (* The tenant now denies inbound; the controller fans the change out. *)
  Controller.update_tenant_rules t.Testbed.ctl o (fun rs ->
      Acl.add (Ruleset.acl rs)
        (Acl.rule ~priority:1 ~dst:(Ipv4.Prefix.make Testbed.heavy_ip 32) Acl.Deny));
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 1.5);
  (* A new inbound flow is now dropped as unsolicited at the BE. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:41002);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "no new delivery" 1 (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm);
  check_bool "dropped as unsolicited" true
    (Vswitch.drop_count t.Testbed.server.Tcp_crr.vs Nf.Unsolicited >= 1);
  (* And the *existing* flow's cached pre-actions were invalidated: its
     next packet re-runs the rule lookup and also drops. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:41001);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "stale cached flow did not leak the old permit" 1
    (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm)

(* ------------------------------------------------------------------ *)
(* BE relocation (§7.2) *)

let test_migrate_be () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  (* Establish a session so there is state to carry. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:42001);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "session at old BE" 1
    (Vswitch.session_count t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id);
  (* Move the BE to a server that hosts no FE of this offload. *)
  let target =
    List.find
      (fun s ->
        s <> t.Testbed.heavy_server
        && (not (List.mem s (Controller.offload_fe_servers o)))
        && Fabric.vswitch_opt t.Testbed.fabric s <> None)
      (Topology.servers (Fabric.topology t.Testbed.fabric))
  in
  (match Controller.migrate_be t.Testbed.ctl o ~to_server:target with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "be server updated" target (Controller.offload_be_server o);
  let new_vs = Fabric.vswitch t.Testbed.fabric target in
  check_int "states carried" 1 (Vswitch.session_count new_vs Testbed.heavy_vnic_id);
  (* The VM followed (re-attach), and traffic flows to the new location
     without touching the senders' vNIC-server entries. *)
  Fabric.attach_vm t.Testbed.fabric target Testbed.heavy_vnic_id t.Testbed.server.Tcp_crr.vm;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.1);
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:42002);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "traffic reaches the migrated VM" 2
    (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm)

(* ------------------------------------------------------------------ *)
(* Elephant pinning (§7.5) *)

let test_pin_elephant () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  let elephant =
    Five_tuple.make ~src:Testbed.heavy_ip ~dst:t.Testbed.clients.(0).Tcp_crr.ip ~src_port:9100
      ~dst_port:9200 ~proto:Five_tuple.Udp
  in
  let dedicated =
    match Controller.pin_elephant t.Testbed.ctl o elephant with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check_bool "dedicated FE is fresh" true
    (not (List.mem dedicated (Controller.offload_fe_servers o)));
  (* Blast the elephant: every packet must go through the dedicated FE. *)
  for _ = 1 to 50 do
    Vswitch.from_vm t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id
      (Packet.create ~vpc:t.Testbed.vpc ~flow:elephant ~direction:Packet.Tx ~payload_len:1400 ())
  done;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 1.0);
  (match Controller.fe_service t.Testbed.ctl dedicated with
  | Some fe -> check_int "all elephant packets on the dedicated FE" 50 (Stats.Counter.value (Fe.counters fe).Fe.tx_finalized)
  | None -> Alcotest.fail "dedicated FE service missing");
  (* Other flows still spread over the regular FE set. *)
  check_int "one pin installed" 1 (Be.pinned_count (Controller.offload_be o))

(* ------------------------------------------------------------------ *)
(* BDF budget (§7.4) *)

let test_bdf_legacy_exhausts () =
  let b = Bdf.create () in
  check_int "36 free by default" 36 (Bdf.capacity b);
  for _ = 1 to 36 do
    match Bdf.allocate_vnic b with Ok _ -> () | Error `No_bdf -> Alcotest.fail "too early"
  done;
  check_bool "exhausted" true (Bdf.allocate_vnic b = Error `No_bdf);
  check_int "all allocated" 36 (Bdf.allocated b)

let test_bdf_sriov_expands () =
  let b = Bdf.create ~mode:Bdf.Sriov () in
  check_int "256 more addresses" (512 - 220) (Bdf.capacity b)

let test_bdf_children_free () =
  let b = Bdf.create () in
  let parent = match Bdf.allocate_vnic b with Ok p -> p | Error `No_bdf -> Alcotest.fail "bdf" in
  for _ = 1 to 1000 do
    match Bdf.attach_child b ~parent with Ok () -> () | Error `No_parent -> Alcotest.fail "parent"
  done;
  check_int "children unbounded by BDF" 1001 (Bdf.total_vnics b);
  check_int "one address consumed" 1 (Bdf.allocated b);
  check_bool "unknown parent rejected" true (Bdf.attach_child b ~parent:999 = Error `No_parent)

(* ------------------------------------------------------------------ *)
(* Codec robustness: decoding arbitrary bytes never raises. *)

let prop_state_decode_total =
  QCheck.Test.make ~name:"State.decode never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 32))
    (fun s ->
      match State.decode (Bytes.of_string s) with Ok _ | Error _ -> true)

let prop_pre_action_decode_total =
  QCheck.Test.make ~name:"Pre_action.decode never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 32))
    (fun s ->
      match Pre_action.decode (Bytes.of_string s) with Ok _ | Error _ -> true)

let prop_packet_decode_total =
  QCheck.Test.make ~name:"Packet.decode never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 128))
    (fun s ->
      match Packet.decode (Bytes.of_string s) with Ok _ | Error _ -> true)

(* The §3.1 equivalence, as a property: carrying state and pre-actions
   through their wire codecs changes nothing about the final verdict. *)
let prop_split_equivalence =
  let gen =
    QCheck.Gen.(
      map
        (fun ((tx_deny, rx_deny, dir), (syn, ack, fin), (first_tx, decap, stats)) ->
          let pre =
            {
              (Pre_action.default ~vni:1) with
              Pre_action.acl_tx = (if tx_deny then Acl.Deny else Acl.Permit);
              acl_rx = (if rx_deny then Acl.Deny else Acl.Permit);
              stats =
                (if stats then Some { Pre_action.count_packets = true; count_bytes = false }
                 else None);
            }
          in
          let state =
            {
              State.first_dir = (if first_tx then Packet.Tx else Packet.Rx);
              tcp = Some State.Established;
              decap_src = (if decap then Some (Ipv4.of_octets 100 64 0 1) else None);
              stats = (if stats then Some { State.packets = 3; bytes = 0 } else None);
            }
          in
          let flags = { Packet.syn; ack; fin; rst = false } in
          (pre, state, (if dir then Packet.Tx else Packet.Rx), flags))
        (triple (triple bool bool bool) (triple bool bool bool) (triple bool bool bool)))
  in
  QCheck.Test.make ~name:"wire codecs preserve the NF verdict (split equivalence)" ~count:500
    (QCheck.make gen)
    (fun (pre, state, dir, flags) ->
      let direct =
        Nf.process ~pre ~state:(Some state) ~dir ~flags ~proto:Five_tuple.Tcp ~wire_bytes:100 ()
      in
      let via_wire =
        let pre' = Result.get_ok (Pre_action.decode (Pre_action.encode pre)) in
        let state' = Result.get_ok (State.decode (State.encode state)) in
        Nf.process ~pre:pre' ~state:(Some state') ~dir ~flags ~proto:Five_tuple.Tcp
          ~wire_bytes:100 ()
      in
      fst direct = fst via_wire)

(* ------------------------------------------------------------------ *)
(* Harness sanity *)

let test_testbed_estimate_close () =
  let t = Testbed.create () in
  let est = Testbed.local_cps_capacity_estimate t in
  let measured = Testbed.measure_cps t ~duration:2.0 () in
  check_bool "estimate within 20%" true (Float.abs (measured -. est) /. est < 0.20)

let test_fig9_vnics_proportional () =
  let rows = Experiments.fig9_vnics ~fes_list:[ 4; 8; 16; 32 ] () in
  let g = List.map snd rows in
  (match g with
  | [ g4; g8; g16; g32 ] ->
    check_bool "doubling FEs doubles capacity" true
      (Float.abs ((g8 /. g4) -. 2.0) < 0.1
      && Float.abs ((g16 /. g8) -. 2.0) < 0.1
      && Float.abs ((g32 /. g16) -. 2.0) < 0.1)
  | _ -> Alcotest.fail "expected 4 rows");
  ()

let test_tableA1_monotone () =
  let rows = Experiments.tableA1 () in
  List.iter
    (fun (_, cols) ->
      let rec decreasing = function
        | (_, a) :: ((_, b) :: _ as rest) ->
          check_bool "throughput falls with rules" true (a >= b);
          decreasing rest
        | [ _ ] | [] -> ()
      in
      decreasing cols)
    rows;
  (* And falls with packet size at fixed rules. *)
  let firsts = List.map (fun (_, cols) -> snd (List.hd cols)) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
      check_bool "throughput falls with size" true (a >= b);
      decreasing rest
    | [ _ ] | [] -> ()
  in
  decreasing firsts

let test_appB2_deterministic () =
  let a = Experiments.appB2 ~seed:9 () in
  let b = Experiments.appB2 ~seed:9 () in
  check_int "same scale-outs" a.Experiments.scale_out_events b.Experiments.scale_out_events;
  check_bool "plausible ratio" true
    (a.Experiments.scale_out_ratio > 0.005 && a.Experiments.scale_out_ratio < 0.08)


(* ------------------------------------------------------------------ *)
(* §7.2 version-targeted offload (flexible feature release) *)

let test_version_targeted_offload () =
  let t = Testbed.create () in
  (* Upgrade four far-away servers (rack 2); everything else is v0. *)
  let upgraded = [ 16; 17; 18; 19 ] in
  List.iter
    (fun s -> Vswitch.set_software_version (Fabric.vswitch t.Testbed.fabric s) 2)
    upgraded;
  let o =
    match
      Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
        ~vnic:Testbed.heavy_vnic_id ~version_filter:(fun v -> v >= 2) ()
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 5.0);
  let fes = Controller.offload_fe_servers o in
  check_int "four FEs" 4 (List.length fes);
  List.iter
    (fun s -> check_bool "only upgraded vSwitches selected" true (List.mem s upgraded))
    fes;
  (* Traffic still flows through the feature-release FEs. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:43100);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "delivered via upgraded FEs" 1 (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm)

(* ------------------------------------------------------------------ *)
(* Final-stage stragglers: a sender with a stale vNIC-server entry hits
   the BE directly and gets bounced through an FE (§4.2.1). *)

let test_stale_sender_bounced () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  let pkt =
    Packet.create ~vpc:t.Testbed.vpc
      ~flow:
        (Five_tuple.make ~src:t.Testbed.clients.(0).Tcp_crr.ip ~dst:Testbed.heavy_ip
           ~src_port:44001 ~dst_port:80 ~proto:Five_tuple.Tcp)
      ~direction:Packet.Rx ~flags:Packet.syn ()
  in
  Packet.encap_vxlan pkt ~vni:9
    ~outer_src:(Vswitch.underlay_ip t.Testbed.clients.(0).Tcp_crr.vs)
    ~outer_dst:(Vswitch.underlay_ip t.Testbed.server.Tcp_crr.vs);
  Vswitch.from_net t.Testbed.server.Tcp_crr.vs pkt;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "bounced once" 1 (Stats.Counter.value (Be.counters (Controller.offload_be o)).Be.bounced);
  check_int "still delivered (via the FE detour)" 1
    (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm)

(* ------------------------------------------------------------------ *)
(* Scale-in: a pool vSwitch reclaims its resources; the offload
   replenishes elsewhere and traffic continues. *)

let test_scale_in_replenishes () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  let victim = List.hd (Controller.offload_fe_servers o) in
  Controller.scale_in_server t.Testbed.ctl victim;
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 3.0);
  let fes = Controller.offload_fe_servers o in
  check_bool "victim evicted" true (not (List.mem victim fes));
  check_int "back at the minimum" 4 (List.length fes);
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:45100);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 0.5);
  check_int "traffic unaffected" 1 (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm)


(* ------------------------------------------------------------------ *)
(* §4.2.2 automatic fallback when the load subsides *)

let test_auto_fallback () =
  let config =
    {
      Controller.default_config with
      Controller.auto_offload = true;
      auto_scale = false;
      auto_fallback = true;
      report_interval = 0.5;
    }
  in
  let t = Testbed.create ~controller_config:config () in
  Controller.start t.Testbed.ctl;
  (* Saturating load triggers offload... *)
  let rec send i sim =
    if Sim.now sim < 8.0 then begin
      Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
        (client_syn t ~sport:(10000 + (i mod 40000)));
      ignore (Sim.schedule sim ~delay:0.0003 (send (i + 1)) : Sim.handle)
    end
  in
  ignore (Sim.schedule t.Testbed.sim ~delay:0.0 (send 0) : Sim.handle);
  (* While the load is still on: offloaded, tables remote. *)
  Sim.run t.Testbed.sim ~until:7.5;
  check_bool "offloaded under load" true (Controller.offload_events t.Testbed.ctl >= 1);
  check_bool "tables remote" true
    (Vswitch.ruleset t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id = None);
  (* ...and once traffic stops, the controller falls back by itself. *)
  Sim.run t.Testbed.sim ~until:25.0;
  check_int "no active offloads" 0 (List.length (Controller.offloads t.Testbed.ctl));
  check_bool "tables back home" true
    (Vswitch.ruleset t.Testbed.server.Tcp_crr.vs Testbed.heavy_vnic_id <> None);
  (* Service still works locally. *)
  Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic
    (client_syn t ~sport:55001);
  let before = Vm.packets_delivered t.Testbed.server.Tcp_crr.vm in
  ignore before;
  Sim.run t.Testbed.sim ~until:26.0;
  check_bool "local path serves" true
    (Vm.packets_delivered t.Testbed.server.Tcp_crr.vm > 0)

(* ------------------------------------------------------------------ *)
(* Chaos: repeated FE crashes and recoveries under sustained load.
   Invariants: the FE set always recovers to the minimum, failovers are
   declared for every crash, and the service keeps completing
   connections throughout. *)

let test_chaos_repeated_failovers () =
  let t = Testbed.create ~racks:6 ~servers_per_rack:8 () in
  let o = Testbed.offload t () in
  Controller.start t.Testbed.ctl;
  Array.iter
    (fun client ->
      ignore
        (Tcp_crr.start_closed ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng)
           ~vpc:t.Testbed.vpc ~client ~server:t.Testbed.server ~concurrency:32 ~duration:30.0 ()
          : Tcp_crr.t))
    t.Testbed.clients;
  let crashes = ref 0 in
  let rec chaos sim =
    if Sim.now sim < 25.0 then begin
      (match Controller.offload_fe_servers o with
      | s :: _ ->
        let nic = Vswitch.nic (Fabric.vswitch t.Testbed.fabric s) in
        if not (Smartnic.is_crashed nic) then begin
          Smartnic.crash nic;
          incr crashes;
          (* Let it come back later, as a reusable candidate. *)
          ignore (Sim.schedule sim ~delay:6.0 (fun _ -> Smartnic.recover nic) : Sim.handle)
        end
      | [] -> ());
      ignore (Sim.schedule sim ~delay:5.0 chaos : Sim.handle)
    end
  in
  ignore (Sim.schedule t.Testbed.sim ~delay:4.0 chaos : Sim.handle);
  Sim.run t.Testbed.sim ~until:35.0;
  check_bool "several crashes injected" true (!crashes >= 4);
  check_int "every crash detected and failed over" !crashes
    (Monitor.failures_declared (Controller.monitor t.Testbed.ctl));
  check_int "FE set recovered to the minimum" 4
    (List.length (Controller.offload_fe_servers o));
  List.iter
    (fun s ->
      check_bool "no dead FE left in the set" true
        (not (Smartnic.is_crashed (Vswitch.nic (Fabric.vswitch t.Testbed.fabric s)))))
    (Controller.offload_fe_servers o);
  (* Service stayed up: tens of thousands of connections despite chaos. *)
  check_bool "service kept completing" true
    (Vm.connections_accepted t.Testbed.server.Tcp_crr.vm > 20_000)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "extensions"
    [
      ( "token_bucket",
        [
          Alcotest.test_case "basics" `Quick test_bucket_basics;
          Alcotest.test_case "burst cap" `Quick test_bucket_burst_cap;
          Alcotest.test_case "invalid args" `Quick test_bucket_invalid;
        ]
        @ qsuite [ prop_bucket_never_exceeds_rate ] );
      ( "rate_limit",
        [
          Alcotest.test_case "local enforcement" `Quick test_rate_limit_local;
          Alcotest.test_case "survives offload (no FE coordination)" `Quick
            test_rate_limit_survives_offload;
        ] );
      ( "rule_updates",
        [ Alcotest.test_case "propagates and invalidates" `Quick test_update_tenant_rules_propagates ] );
      ("migration", [ Alcotest.test_case "BE relocation" `Quick test_migrate_be ]);
      ("elephant", [ Alcotest.test_case "pin to dedicated FE" `Quick test_pin_elephant ]);
      ( "feature_release",
        [ Alcotest.test_case "version-targeted offload" `Quick test_version_targeted_offload ] );
      ( "dual_running",
        [
          Alcotest.test_case "stale sender bounced" `Quick test_stale_sender_bounced;
          Alcotest.test_case "scale-in replenishes" `Quick test_scale_in_replenishes;
          Alcotest.test_case "auto fallback when idle" `Quick test_auto_fallback;
        ] );
      ( "chaos",
        [ Alcotest.test_case "repeated failovers under load" `Slow test_chaos_repeated_failovers ] );
      ( "bdf",
        [
          Alcotest.test_case "legacy exhausts" `Quick test_bdf_legacy_exhausts;
          Alcotest.test_case "sriov expands" `Quick test_bdf_sriov_expands;
          Alcotest.test_case "children are free" `Quick test_bdf_children_free;
        ] );
      ( "codecs",
        qsuite
          [
            prop_state_decode_total;
            prop_pre_action_decode_total;
            prop_packet_decode_total;
            prop_split_equivalence;
          ] );
      ( "harness",
        [
          Alcotest.test_case "capacity estimate close" `Quick test_testbed_estimate_close;
          Alcotest.test_case "fig9 vnics proportional" `Quick test_fig9_vnics_proportional;
          Alcotest.test_case "tableA1 monotone" `Quick test_tableA1_monotone;
          Alcotest.test_case "appB2 deterministic" `Quick test_appB2_deterministic;
        ] );
    ]
