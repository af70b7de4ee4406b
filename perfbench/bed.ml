(* The two testbed workloads: crr_local (TCP_CRR served by the heavy
   vNIC's own vSwitch) and offload_mix (the same vNIC offloaded to four
   FEs, carrying TCP_CRR at twice local capacity beside bulk bursts).

   One run of a workload builds the testbed, starts the generator, lets
   one session-aging period pass, then measures a window of fixed
   simulated length and drains.  The untraced run drives the window
   with [Sim.run]; the traced run re-installs every layer boundary
   wrapped in a {!Ledger} span and drives the same window with
   [Sim.step] under a span of its own.  Both schedule the same sentinel
   at the window end, so they execute the same events. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness
open Nezha_workloads

type kind = Crr_local | Offload_mix

type spec = {
  kind : kind;
  load : float;  (** CRR rate as a multiple of the local CPS capacity estimate *)
  bulk : (int * int * float) option;
      (** flows, burst length, share of the tenant packets the bursts carry *)
  slice_sim : float;  (** simulated seconds per window slice *)
}

(* The bulk half of offload_mix.  The paper gives no traffic mix, so
   these numbers are a choice, not a measurement:
   - a burst is 32 packets, the default [Pbatch] capacity;
   - bursts carry a quarter of the tenant packets: the batch paths do
     real work while TCP_CRR singles stay the larger share, so a change
     that trades one path for the other moves the total;
   - 64 flows hash to about 16 per FE over the 4 FEs, and each flow is
     revisited about every 0.15 s simulated, far inside the 8 s session
     aging, so the flows stay long-lived.
   The payload is [Gen.bulk_payload]. *)
let bulk_flows = 64
let bulk_burst = 32
let bulk_share = 0.25

let spec = function
  | Crr_local -> { kind = Crr_local; load = 0.7; bulk = None; slice_sim = 4.0 }
  | Offload_mix ->
    {
      kind = Offload_mix;
      load = 2.0;
      bulk = Some (bulk_flows, bulk_burst, bulk_share);
      slice_sim = 0.6;
    }

let settle = 2.0

(* The measured window is [slices] equal slices of simulated time, each
   timed as one {!Host.sample}; a slice takes about 0.25 s of host CPU
   time on an idle 2-vCPU Xeon VM.  The traced run replays the untraced
   run's window exactly. *)
let slices_per_host_s = 4.0

(* ---- counters read through the public APIs ---------------------------- *)

type snap = {
  sent : int;
  bulk_sent : int;
  events : int;
  pool : int * int;
  pbatch : int * int * int;
  minor : float;
  promoted : float;
  majors : int;
  slow : int;
  fast : int;
  mega_hits : int;
  mega_misses : int;
  be_tracked : int;
  be_acked : int;
  be_retx : int;
  fe_lookups : int;
  fe_fast : int;
}

type env = {
  tb : Testbed.t;
  offload : Controller.offload option;
  gen : Gen.t;
  mutable sessions_peak : int;
  mutable vm_outputs : int;
      (** VM deliveries through the traced sink, which [Fabric.delivered_to_vms]
          cannot see *)
}

let heavy_vs env = env.tb.Testbed.server.Tcp_crr.vs
let heavy_addr env = { Vnic.Addr.vpc = env.tb.Testbed.vpc; ip = Testbed.heavy_ip }

let fes env =
  match env.offload with
  | None -> []
  | Some o ->
    List.filter_map (Controller.fe_service env.tb.Testbed.ctl) (Controller.offload_fe_servers o)

let vswitches env =
  let fabric = env.tb.Testbed.fabric in
  List.filter_map (Fabric.vswitch_opt fabric) (Topology.servers (Fabric.topology fabric))

let rulesets env =
  let own (ep : Tcp_crr.endpoint) = Vswitch.ruleset ep.Tcp_crr.vs ep.Tcp_crr.vnic in
  List.filter_map own (env.tb.Testbed.server :: Array.to_list env.tb.Testbed.clients)
  @ List.filter_map (fun fe -> Fe.ruleset_of fe (heavy_addr env)) (fes env)

let be_counters env =
  match env.offload with
  | None -> None
  | Some o -> Some (Be.counters (Controller.offload_be o))

let snap env =
  let v = Stats.Counter.value in
  let vc = Vswitch.counters (heavy_vs env) in
  let gc = Gc.quick_stat () in
  let be f = match be_counters env with Some c -> v (f c) | None -> 0 in
  let fe_sum f = List.fold_left (fun acc fe -> acc + v (f (Fe.counters fe))) 0 (fes env) in
  let rs_sum f = List.fold_left (fun acc rs -> acc + f rs) 0 (rulesets env) in
  {
    sent = env.gen.Gen.sent;
    bulk_sent = Gen.bulk_sent env.gen;
    events = Sim.events_executed env.tb.Testbed.sim;
    pool = Sim.pool_stats env.tb.Testbed.sim;
    pbatch = Pbatch.pool_stats ();
    minor = gc.Gc.minor_words;
    promoted = gc.Gc.promoted_words;
    majors = gc.Gc.major_collections;
    slow = v vc.Vswitch.slow_path_execs;
    fast = v vc.Vswitch.fast_path_hits;
    mega_hits = rs_sum Ruleset.megaflow_hits;
    mega_misses = rs_sum Ruleset.megaflow_misses;
    be_tracked = be (fun c -> c.Be.offload_tracked);
    be_acked = be (fun c -> c.Be.offload_acked);
    be_retx = be (fun c -> c.Be.offload_retx);
    fe_lookups = fe_sum (fun c -> c.Fe.rule_lookups);
    fe_fast = fe_sum (fun c -> c.Fe.fast_hits);
  }

(* ---- setup ------------------------------------------------------------ *)

(* Building the scenario: the testbed, plus offload activation for
   offload_mix.  The capacity estimate is read before offloading, while
   the heavy vNIC's rule tables are still local. *)
let build ~seed s =
  let tb = Testbed.create ~seed ~clients:5 () in
  let capacity = Testbed.local_cps_capacity_estimate tb in
  let offload =
    match s.kind with
    | Crr_local -> None
    | Offload_mix -> Some (Testbed.offload tb ~num_fes:4 ())
  in
  (tb, offload, capacity)

let start ~seed s (tb, offload, capacity) =
  let clients = Array.sub tb.Testbed.clients 0 4 in
  let rate = s.load *. capacity in
  let bulk =
    Option.map
      (fun (flows, burst, share) ->
        let crr_pkts_per_s = rate *. float_of_int Gen.packets_per_conn in
        let bursts_per_s = share /. (1.0 -. share) *. crr_pkts_per_s /. float_of_int burst in
        (tb.Testbed.clients.(4), flows, burst, bursts_per_s))
      s.bulk
  in
  let gen =
    Gen.start ~sim:tb.Testbed.sim ~rng:(Rng.create (seed + 0x5eed)) ~vpc:tb.Testbed.vpc
      ~server:tb.Testbed.server ~clients ~rate ?bulk ()
  in
  { tb; offload; gen; sessions_peak = 0; vm_outputs = 0 }

(* ---- tracing: every layer boundary re-installed behind a span --------- *)

type layers = {
  step : Ledger.layer;
  app : Ledger.layer;
  tx : Ledger.layer;
  tx_batch : Ledger.layer;
  be : Ledger.layer;
  fe : Ledger.layer;
  fe_batch : Ledger.layer;
  fabric : Ledger.layer;
  fabric_batch : Ledger.layer;
  vm : Ledger.layer;
}

let new_layers () =
  let l = Ledger.layer in
  {
    step = l "engine.step";
    app = l "gen.app";
    tx = l "vswitch.tx";
    tx_batch = l "vswitch.tx_batch";
    be = l "be";
    fe = l "fe";
    fe_batch = l "fe.batch";
    fabric = l "fabric";
    fabric_batch = l "fabric.batch";
    vm = l "vm.deliver";
  }

let all_layers l =
  [ l.step; l.app; l.tx; l.tx_batch; l.be; l.fe; l.fe_batch; l.fabric; l.fabric_batch; l.vm ]

let instrument env l =
  let span = Ledger.span in
  let g = env.gen in
  g.Gen.tx <- (fun vs vid pkt -> span l.tx ~pkts:1 (fun () -> Vswitch.from_vm vs vid pkt));
  g.Gen.tx_batch <-
    (fun vs vid b ->
      let n = Pbatch.length b in
      span l.tx_batch ~pkts:n (fun () -> Vswitch.from_vnic_batch vs vid b));
  Gen.wrap_apps g (fun app sim pkt -> span l.app ~pkts:1 (fun () -> app sim pkt));
  (* The fabric's sink, rebuilt from its public calls.  Only its
     [delivered_to_vms] counter is private; the run counts those
     deliveries in [env.vm_outputs] instead. *)
  let fabric = env.tb.Testbed.fabric in
  List.iter
    (fun sid ->
      match Fabric.vswitch_opt fabric sid with
      | None -> ()
      | Some vs ->
        Vswitch.set_sink vs
          {
            Vswitch.on_output =
              (function
              | Vswitch.To_net pkt ->
                span l.fabric ~pkts:1 (fun () -> Fabric.deliver_to_server fabric ~src:sid pkt)
              | Vswitch.To_vm (vid, pkt) -> (
                env.vm_outputs <- env.vm_outputs + 1;
                match Fabric.vm_of fabric sid vid with
                | Some vm -> span l.vm ~pkts:1 (fun () -> Vm.deliver vm pkt)
                | None -> ()));
            on_net_batch =
              (fun b ->
                let n = Pbatch.length b in
                span l.fabric_batch ~pkts:n (fun () ->
                    Fabric.deliver_batch_to_server fabric ~src:sid b));
          })
    (Topology.servers (Fabric.topology fabric));
  (match env.offload with
  | None -> ()
  | Some o ->
    let be = Controller.offload_be o in
    let ingest dir pkt = span l.be ~pkts:1 (fun () -> Be.Ingress_impl.ingest be ~ctx:dir pkt) in
    Vswitch.set_intercept (heavy_vs env) Testbed.heavy_vnic_id
      (Some
         {
           Vswitch.on_tx = ingest Packet.Tx;
           on_rx = ingest Packet.Rx;
           on_tx_batch =
             Some
               (fun b ->
                 let n = Pbatch.length b in
                 span l.be ~pkts:n (fun () -> Be.handle_tx_batch be b));
         }));
  List.iter
    (fun fe ->
      let vs = Fe.vswitch fe in
      Vswitch.set_net_hook vs
        (Some (fun pkt ~outer -> span l.fe ~pkts:1 (fun () -> Fe.process fe pkt ~outer)));
      Vswitch.set_net_hook_batch vs
        (Some
           (fun b ->
             let n = Pbatch.length b in
             span l.fe_batch ~pkts:n (fun () -> Fe.process_batch fe b))))
    (fes env)

(* ---- one run ------------------------------------------------------------ *)

type outcome = {
  win_sim : float;
  slices : Host.sample list;  (** one per window slice *)
  sent : int;  (** tenant packets handed to vSwitch TX inside the window *)
  peak_heap_mb : float;
  win_completed : int;
  p50_us : float;
  p99_us : float;
  attempted : int;
  failed : int;
  violations : string list;
  drops : (string * int) list;
  lost : (string * int) list;
  vm_drops : int;
  delivered_to_vms : int;  (** [Fabric.delivered_to_vms] plus the traced sink's count *)
  before : snap;
  after : snap;
  sessions_peak : int;
  be_outstanding_end : int;
  pbatch_leaked : int;
  host_bytes_per_session : float;
  ledger : (layers * int) option;  (** the layers and the traced window's length, ns *)
}

let fabric_reasons =
  [
    ("no_vxlan", Fabric.No_vxlan);
    ("no_such_server", Fabric.No_such_server);
    ("no_vswitch", Fabric.No_vswitch);
    ("fault_injected", Fabric.Fault_injected);
  ]

let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* Fresh builds are timed until [setup_budget] CPU seconds are spent
   (at least ten); the last one is run.  Returns the build samples and
   the run's outcome. *)
let run ~seed ~slices ~setup_budget ~traced kind =
  let s = spec kind in
  let min_reps = if setup_budget > 0.0 then 10 else 1 in
  let times, b = Host.repeat ~min_reps ~budget:setup_budget (fun _ -> build ~seed s) in
  let env = start ~seed s b in
  let tb = env.tb in
  let sim = tb.Testbed.sim in
  let g = env.gen in
  let base_live = if traced then live_bytes () else 0.0 in
  let pb0 = Pbatch.pool_stats () in
  let t_win = Sim.now sim +. (Vswitch.params (heavy_vs env)).Params.flow_aging in
  let boundary k = t_win +. (s.slice_sim *. float_of_int k) in
  let t_end = boundary slices in
  g.Gen.win_start <- t_win;
  g.Gen.win_end <- t_end;
  g.Gen.stop_at <- t_end;
  let at_end = ref false in
  ignore (Sim.at sim ~time:t_end (fun _ -> at_end := true) : Sim.handle);
  Sim.run sim ~until:t_win;
  let layers = if traced then Some (new_layers ()) else None in
  Option.iter (instrument env) layers;
  let before = snap env in
  let note_sessions () =
    env.sessions_peak <- max env.sessions_peak (Vswitch.total_sessions (heavy_vs env))
  in
  let run_slice k =
    Sim.run sim ~until:(boundary (k + 1));
    note_sessions ()
  in
  let samples, window_ns =
    match layers with
    | None ->
      let samples, () =
        Host.repeat ~collect:false ~min_reps:slices ~max_reps:slices ~budget:0.0 run_slice
      in
      (samples, 0)
    | Some l ->
      (* The same slices, stepped; probes are kept out of the ledger. *)
      let t0 = Ledger.now_ns () and probe_ns = ref 0 in
      let probe () =
        let p0 = Ledger.now_ns () in
        let p = Host.probe () in
        probe_ns := !probe_ns + (Ledger.now_ns () - p0);
        p
      in
      let samples = ref [] and before = ref (probe ()) and c0 = ref (Host.cpu ()) in
      let close_slice () =
        let dt = Host.cpu () -. !c0 in
        note_sessions ();
        let after = probe () in
        samples := Host.sample ~before:!before ~after dt :: !samples;
        before := after;
        c0 := Host.cpu ()
      in
      let k = ref 1 and continue = ref true in
      let next = ref (boundary 1) in
      while !continue && not !at_end do
        Ledger.enter ();
        continue := Sim.step sim;
        Ledger.leave l.step ~pkts:0;
        while Sim.now sim > !next do
          close_slice ();
          incr k;
          next := if !k < slices then boundary !k else infinity
        done
      done;
      close_slice ();
      (List.rev !samples, Ledger.now_ns () - t0 - !probe_ns)
  in
  let win_sim = t_end -. t_win in
  let after = snap env in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let sessions_end = Vswitch.total_sessions (heavy_vs env) in
  let host_bytes_per_session =
    if traced && sessions_end > 0 then (live_bytes () -. base_live) /. float_of_int sessions_end
    else 0.0
  in
  Sim.run sim ~until:(t_end +. settle);
  (* ---- correctness, at quiescence ---- *)
  let open_conns = Gen.open_conns g in
  let bulk_lost = Gen.bulk_sent g - Gen.bulk_delivered g in
  let pb1 = Pbatch.pool_stats () in
  let pbatch_leaked =
    let f0, r0, c0 = pb0 and f1, r1, c1 = pb1 in
    f1 - f0 + (r1 - r0) - (c1 - c0)
  in
  let be_outstanding_end =
    match env.offload with Some o -> Be.outstanding (Controller.offload_be o) | None -> 0
  in
  let violations =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (g.Gen.offered = g.Gen.completed + open_conns, "offered <> completed + open");
        (g.Gen.stray = 0, "replies to no open connection");
        ( (match be_counters env with
          | None -> true
          | Some c ->
            let v = Stats.Counter.value in
            v c.Be.offload_tracked
            = v c.Be.offload_acked + v c.Be.local_fallback + v c.Be.offload_dropped
              + be_outstanding_end),
          "BE tracker conservation" );
        (Controller.check_conservation tb.Testbed.ctl, "controller conservation");
        (pbatch_leaked = 0, "leaked Pbatch batches");
        (g.Gen.win_completed > 0, "no connection completed in the window");
      ]
  in
  let attempted = g.Gen.offered + Gen.bulk_sent g in
  let failed = if violations = [] then open_conns + bulk_lost else attempted in
  let vss = vswitches env in
  let drops =
    List.map
      (fun r ->
        ( Nf.drop_reason_to_string r,
          List.fold_left (fun acc vs -> acc + Vswitch.drop_count vs r) 0 vss ))
      Nf.all_drop_reasons
  in
  let lost = List.map (fun (n, r) -> (n, Fabric.lost_by tb.Testbed.fabric r)) fabric_reasons in
  let vm_drops =
    List.fold_left
      (fun acc (ep : Tcp_crr.endpoint) -> acc + Vm.packets_dropped ep.Tcp_crr.vm)
      0
      (tb.Testbed.server :: Array.to_list tb.Testbed.clients)
  in
  let p50_us, p99_us = Gen.latency_us g in
  ( times,
    {
      win_sim;
      slices = samples;
      sent = after.sent - before.sent;
      peak_heap_mb;
      win_completed = g.Gen.win_completed;
      p50_us;
      p99_us;
      attempted;
      failed;
      violations;
      drops;
      lost;
      vm_drops;
      delivered_to_vms = Fabric.delivered_to_vms tb.Testbed.fabric + env.vm_outputs;
      before;
      after;
      sessions_peak = env.sessions_peak;
      be_outstanding_end;
      pbatch_leaked;
      host_bytes_per_session;
      ledger = Option.map (fun l -> (l, window_ns)) layers;
    } )
