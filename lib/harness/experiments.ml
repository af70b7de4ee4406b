open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_baselines
open Nezha_workloads
module Json = Nezha_telemetry.Json
module Trace = Nezha_telemetry.Trace

(* ------------------------------------------------------------------ *)
(* Fig. 9 *)

type fig9_row = { fes : int; cps_gain : float; flows_gain : float; vnics_gain : float }

let base_cps ?(seed = 1) ?middlebox () =
  let t = Testbed.create ~seed ?middlebox () in
  Testbed.measure_cps t ()

let nezha_cps ?(seed = 1) ?middlebox ~fes () =
  let t = Testbed.create ~seed ?middlebox () in
  ignore (Testbed.offload t ~num_fes:fes () : Controller.offload);
  Testbed.measure_cps t ~concurrency:1024 ()

(* #concurrent flows: a 6 MB (scaled) rule table leaves ~4.7 MB for the
   session table locally; offloading frees it for states. *)
let flows_ruleset () =
  let rs = Ruleset.create ~vni:9 ~fixed_overhead_bytes:(6 * 1024 * 1024 / 4) () in
  Ruleset.add_route rs (Ipv4.Prefix.make (Ipv4.of_octets 10 0 0 0) 8);
  rs

(* The scaled vSwitch has 10.7 MB; use a 1.5 MB table so numbers stay in
   the tens of thousands of flows. *)
let measure_flows ?(seed = 1) ~fes () =
  let t = Testbed.create ~seed ~ruleset:(flows_ruleset ()) ~clients:4 () in
  if fes > 0 then ignore (Testbed.offload t ~num_fes:fes () : Controller.offload);
  let gen =
    Persistent.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
      ~client:t.Testbed.clients.(0) ~server:t.Testbed.server ~target:140_000
      ~ramp_rate:25_000.0 ()
  in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 9.0);
  let live = Persistent.live_flows gen () in
  Persistent.stop gen;
  live

(* #vNICs: a memory-placement model at full scale — each vNIC needs its
   rule tables either locally or replicated on [min 4 m] of the pool's
   FEs, plus 2 KB of BE residual memory. *)
let vnic_table_bytes = 5_500_000 (* §2.2.2: most vNICs need 5.5-10 MB *)

let vnics_capacity ~fes:m ~table_bytes =
  let mem = Params.default.Params.mem_bytes in
  if m = 0 then mem / table_bytes
  else begin
    let residual = Params.be_residual_bytes_per_vnic in
    let replicas = min 4 m in
    let fe_free = Array.make m mem in
    let be_free = ref mem in
    let count = ref 0 in
    let exception Done in
    (try
       while true do
         if !be_free < residual then raise Done;
         (* Place replicas on the least-loaded FEs. *)
         let order = Array.init m Fun.id in
         Array.sort (fun a b -> compare fe_free.(b) fe_free.(a)) order;
         for i = 0 to replicas - 1 do
           if fe_free.(order.(i)) < table_bytes then raise Done
         done;
         for i = 0 to replicas - 1 do
           fe_free.(order.(i)) <- fe_free.(order.(i)) - table_bytes
         done;
         be_free := !be_free - residual;
         incr count
       done
     with Done -> ());
    !count
  end

let fig9_vnics ?(fes_list = [ 1; 2; 4; 8; 16; 32; 64; 128 ]) () =
  let base = float_of_int (vnics_capacity ~fes:0 ~table_bytes:vnic_table_bytes) in
  List.map
    (fun fes ->
      (fes, float_of_int (vnics_capacity ~fes ~table_bytes:vnic_table_bytes) /. base))
    fes_list

let fig9 ?(seed = 1) ?(fes_list = [ 1; 2; 3; 4; 6; 8 ]) () =
  let cps0 = base_cps ~seed () in
  let flows0 = float_of_int (measure_flows ~seed ~fes:0 ()) in
  let vnics0 = float_of_int (vnics_capacity ~fes:0 ~table_bytes:vnic_table_bytes) in
  List.map
    (fun fes ->
      let cps = nezha_cps ~seed ~fes () in
      let flows = float_of_int (measure_flows ~seed ~fes ()) in
      let vnics = float_of_int (vnics_capacity ~fes ~table_bytes:vnic_table_bytes) in
      { fes; cps_gain = cps /. cps0; flows_gain = flows /. flows0; vnics_gain = vnics /. vnics0 })
    fes_list

(* Connection-setup latency distributions under the saturating load of
   the fig9 CPS measurement: the tail summaries (P50/P99/P9999) the
   machine-readable bench output reports alongside the gains. *)
let fig9_latency ?(seed = 1) ?(fes = 4) () =
  let without =
    let t = Testbed.create ~seed () in
    Testbed.measure_latency t ()
  in
  let with_ =
    let t = Testbed.create ~seed () in
    ignore (Testbed.offload t ~num_fes:fes () : Controller.offload);
    Testbed.measure_latency t ~concurrency:1024 ()
  in
  (without, with_)

(* ------------------------------------------------------------------ *)
(* Fig. 10 *)

type fig10_row = { vcpus : int; cps_without : float; cps_with : float }

let fig10 ?(seed = 1) ?(vcpus_list = [ 8; 16; 32; 48; 64 ]) () =
  List.map
    (fun vcpus ->
      let t0 = Testbed.create ~seed ~server_vcpus:vcpus () in
      let without = Testbed.measure_cps t0 () in
      let t1 = Testbed.create ~seed ~server_vcpus:vcpus () in
      ignore (Testbed.offload t1 ~num_fes:4 () : Controller.offload);
      let with_ = Testbed.measure_cps t1 ~concurrency:1024 () in
      { vcpus; cps_without = without; cps_with = with_ })
    vcpus_list

(* ------------------------------------------------------------------ *)
(* Fig. 11 *)

type fig11_point = { t : float; cps : float; be_cpu : float; fe_cpu : float; n_fes : int }

let fig11 ?(seed = 1) () =
  let config =
    {
      Controller.default_config with
      Controller.auto_offload = true;
      auto_scale = true;
      report_interval = 1.0;
    }
  in
  let t = Testbed.create ~seed ~controller_config:config () in
  Controller.start t.Testbed.ctl;
  let local_cap = Testbed.local_cps_capacity_estimate t in
  (* Ramp offered CPS from 0.2x to 2.5x the local capacity over 40 s. *)
  let duration = 40.0 in
  let rate_at time = local_cap *. (0.2 +. (2.3 *. time /. duration)) in
  let rec segment time =
    if time < duration then begin
      let seg = int_of_float time in
      ignore
        (Tcp_crr.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
           ~client:t.Testbed.clients.(seg mod Array.length t.Testbed.clients)
           ~server:t.Testbed.server ~rate:(rate_at time) ~duration:1.0
           ~sport_base:(1024 + (seg mod 6 * 10_000))
           ()
          : Tcp_crr.t);
      ignore (Sim.schedule t.Testbed.sim ~delay:1.0 (fun _ -> segment (time +. 1.0)) : Sim.handle)
    end
  in
  ignore (Sim.schedule t.Testbed.sim ~delay:0.0 (fun _ -> segment 0.0) : Sim.handle);
  let points = ref [] in
  let last_accepted = ref 0 in
  Sim.every t.Testbed.sim ~period:0.5 (fun sim ->
      let now = Sim.now sim in
      if now <= duration +. 5.0 then begin
        let accepted = Vm.connections_accepted t.Testbed.server.Tcp_crr.vm in
        let cps = float_of_int (accepted - !last_accepted) /. 0.5 in
        last_accepted := accepted;
        let be_cpu = Controller.last_cpu t.Testbed.ctl t.Testbed.heavy_server in
        let fe_servers =
          match Controller.find_offload t.Testbed.ctl ~server:t.Testbed.heavy_server
                  ~vnic:Testbed.heavy_vnic_id
          with
          | Some o -> Controller.offload_fe_servers o
          | None -> []
        in
        let fe_cpu =
          match fe_servers with
          | [] -> 0.0
          | fes ->
            List.fold_left (fun acc s -> acc +. Controller.last_cpu t.Testbed.ctl s) 0.0 fes
            /. float_of_int (List.length fes)
        in
        points := { t = now; cps; be_cpu; fe_cpu; n_fes = List.length fe_servers } :: !points;
        true
      end
      else false);
  Sim.run t.Testbed.sim ~until:(duration +. 6.0);
  List.rev !points

(* ------------------------------------------------------------------ *)
(* Fig. 12 *)

type fig12_row = {
  load : float;
  lat_without_us : float;
  lat_with_us : float;
  lost_without : float;
  lost_with : float;
}

(* A single-flow UDP latency probe.  With [attribute] the testbed's
   flight recorder is switched on for exactly the measurement window
   (1-in-8 sampling keeps the ring from wrapping at the highest probe
   rates) and the completed, conserved traces come back alongside the
   latency summary. *)
let latency_probe ?(attribute = false) t ~rate ~warmup ~measure =
  let sim = t.Testbed.sim in
  let tr = t.Testbed.trace in
  if attribute then begin
    Trace.set_sample_every tr 8;
    ignore (Sim.at sim ~time:warmup (fun _ -> Trace.set_enabled tr true) : Sim.handle);
    ignore
      (Sim.at sim ~time:(warmup +. measure) (fun _ -> Trace.set_enabled tr false)
        : Sim.handle)
  end;
  let flow =
    Five_tuple.make ~src:t.Testbed.clients.(0).Tcp_crr.ip ~dst:Testbed.heavy_ip ~src_port:9999
      ~dst_port:7777 ~proto:Five_tuple.Udp
  in
  let sent_at = Hashtbl.create 65536 in
  let lat = Stats.Histogram.create () in
  let sent = ref 0 and received = ref 0 in
  let measuring () =
    let now = Sim.now sim in
    now >= warmup && now <= warmup +. measure
  in
  Vm.set_app t.Testbed.server.Tcp_crr.vm (fun sim' pkt ->
      match Hashtbl.find_opt sent_at pkt.Packet.uid with
      | Some t0 ->
        Hashtbl.remove sent_at pkt.Packet.uid;
        incr received;
        Stats.Histogram.record lat (Sim.now sim' -. t0)
      | None -> ());
  let interval = 1.0 /. rate in
  let rec tick sim' =
    if Sim.now sim' < warmup +. measure +. 0.2 then begin
      let pkt =
        Packet.create ~vpc:t.Testbed.vpc ~flow ~direction:Packet.Tx ~payload_len:200 ()
      in
      if measuring () then begin
        Hashtbl.replace sent_at pkt.Packet.uid (Sim.now sim');
        incr sent
      end;
      Vswitch.from_vm t.Testbed.clients.(0).Tcp_crr.vs t.Testbed.clients.(0).Tcp_crr.vnic pkt;
      ignore (Sim.schedule sim' ~delay:interval tick : Sim.handle)
    end
  in
  ignore (Sim.schedule sim ~delay:0.0 tick : Sim.handle);
  Sim.run sim ~until:(warmup +. measure +. 1.0);
  let loss =
    if !sent = 0 then 0.0 else 1.0 -. (float_of_int !received /. float_of_int !sent)
  in
  let attrs =
    if not attribute then []
    else
      (* Keep only traces whose stage/wire spans still tile the measured
         end-to-end interval: a trace whose spans were overwritten by the
         ring (or that genuinely lost time, e.g. a spurious ack-loss
         retransmission) would mis-attribute. *)
      List.filter_map
        (fun id ->
          match Trace.attribute tr ~id with
          | Some a when Float.abs a.Trace.residual <= 1e-9 +. (1e-6 *. a.Trace.e2e) ->
            Some a
          | _ -> None)
        (Trace.completed_ids tr)
  in
  (Stats.Histogram.percentile lat 50.0, loss, attrs)

(* The probe flow itself drives the load; run each point on a fresh
   testbed with a 4x-slower CPU so packet rates stay simulable. *)
let fig12_params = Params.with_cpu_scale 4.0 Params.scaled

let fig12_capacity_pps =
  (* Local RX per-packet cost: move the wire bytes (292 for the probe)
     plus the full fast path; delivery to the VM adds no encap. *)
  let p = fig12_params in
  let per_pkt =
    float_of_int Params.fast_path_cycles +. (Params.byte_move_cycles *. 292.0)
  in
  p.Params.cpu_hz /. per_pkt

let fig12 ?(seed = 1) ?(loads = [ 0.1; 0.3; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0; 1.1 ]) () =
  List.map
    (fun load ->
      let rate = load *. fig12_capacity_pps in
      let without =
        let t = Testbed.create ~seed ~params:fig12_params () in
        let p50, loss, _ = latency_probe t ~rate ~warmup:3.0 ~measure:0.8 in
        (p50, loss)
      in
      let with_ =
        let config =
          {
            Controller.default_config with
            Controller.auto_offload = true;
            auto_scale = false;
            report_interval = 1.0;
          }
        in
        let t = Testbed.create ~seed ~params:fig12_params ~controller_config:config () in
        Controller.start t.Testbed.ctl;
        let p50, loss, _ = latency_probe t ~rate ~warmup:3.0 ~measure:0.8 in
        (p50, loss)
      in
      {
        load;
        lat_without_us = fst without *. 1e6;
        lat_with_us = fst with_ *. 1e6;
        lost_without = snd without;
        lost_with = snd with_;
      })
    loads

(* Fig. 12, attributed (bench entry fig12_attribute): the same probe
   with the flight recorder on, splitting the P50/P99 latency into local
   work and remote-hop (FE processing + NSH-leg wire) components.  The
   split is rank-based: we report the local/remote breakdown of *the*
   trace sitting at the P50 (P99) rank of the end-to-end distribution,
   so the two components sum to the reported percentile exactly
   (conservation invariant). *)

type latency_split = {
  traces : int;
  p50_us : float;
  p50_local_us : float;
  p50_remote_us : float;
  p99_us : float;
  p99_local_us : float;
  p99_remote_us : float;
}

type fig12_attr_row = {
  attr_load : float;
  without_nezha : latency_split;
  with_nezha : latency_split;
}

let split_of_attrs attrs =
  match attrs with
  | [] ->
    {
      traces = 0;
      p50_us = 0.0;
      p50_local_us = 0.0;
      p50_remote_us = 0.0;
      p99_us = 0.0;
      p99_local_us = 0.0;
      p99_remote_us = 0.0;
    }
  | _ ->
    let arr = Array.of_list attrs in
    Array.sort (fun a b -> compare a.Trace.e2e b.Trace.e2e) arr;
    let n = Array.length arr in
    (* Nearest rank: each split is one real trace's attribution. *)
    let at pct = arr.(Stats.nearest_rank n pct) in
    let p50 = at 50.0 and p99 = at 99.0 in
    {
      traces = n;
      p50_us = p50.Trace.e2e *. 1e6;
      p50_local_us = p50.Trace.local_s *. 1e6;
      p50_remote_us = p50.Trace.remote_s *. 1e6;
      p99_us = p99.Trace.e2e *. 1e6;
      p99_local_us = p99.Trace.local_s *. 1e6;
      p99_remote_us = p99.Trace.remote_s *. 1e6;
    }

let fig12_attribute ?(seed = 1) ?(loads = [ 0.3; 0.7; 1.0 ]) () =
  List.map
    (fun load ->
      let rate = load *. fig12_capacity_pps in
      let probe t = latency_probe ~attribute:true t ~rate ~warmup:3.0 ~measure:0.8 in
      let without_nezha =
        let t = Testbed.create ~seed ~params:fig12_params () in
        let _, _, attrs = probe t in
        split_of_attrs attrs
      in
      let with_nezha =
        let config =
          {
            Controller.default_config with
            Controller.auto_offload = true;
            auto_scale = false;
            report_interval = 1.0;
          }
        in
        let t = Testbed.create ~seed ~params:fig12_params ~controller_config:config () in
        Controller.start t.Testbed.ctl;
        let _, _, attrs = probe t in
        split_of_attrs attrs
      in
      { attr_load = load; without_nezha; with_nezha })
    loads

(* ------------------------------------------------------------------ *)
(* Table 3 *)

type table3_row = {
  kind : Middlebox.kind;
  cps_gain : float;
  vnics_gain : float;
  flows_gain : float;
}

(* Session-table budgets implied by Table 3's #flows gains (see
   EXPERIMENTS.md): memory = rule tables + session budget, scaled /100
   so tens of thousands of real session entries are simulable. *)
let table3_session_budget = function
  | Middlebox.Load_balancer -> 54_600_000
  | Middlebox.Nat_gateway -> 3_300_000
  | Middlebox.Transit_router -> 18_400_000

let table3_flows ?(seed = 1) kind ~offloaded () =
  let mem_scale = 100.0 in
  let session_budget = int_of_float (float_of_int (table3_session_budget kind) /. mem_scale) in
  let rng = Rng.create (seed + 7) in
  let ruleset = Middlebox.make_ruleset kind ~rng ~vni:9 ~mem_scale () in
  (* Memory = this middlebox's actual rule tables + its session budget. *)
  let params =
    { Params.scaled with
      Params.mem_bytes = Ruleset.memory_bytes ruleset + session_budget + 4096 }
  in
  let t = Testbed.create ~seed ~params ~ruleset () in
  if offloaded then ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
  let nezha_capacity = (params.Params.mem_bytes - 2048) / 104 in
  let gen =
    Persistent.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
      ~client:t.Testbed.clients.(0) ~server:t.Testbed.server
      ~target:(nezha_capacity * 13 / 10)
      ~ramp_rate:25_000.0 ()
  in
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 9.0);
  let live = Persistent.live_flows gen () in
  Persistent.stop gen;
  live

let table3 ?(seed = 1) () =
  List.map
    (fun kind ->
      let cps0 = base_cps ~seed ~middlebox:kind () in
      let cps1 = nezha_cps ~seed ~middlebox:kind ~fes:4 () in
      let flows0 = table3_flows ~seed kind ~offloaded:false () in
      let flows1 = table3_flows ~seed kind ~offloaded:true () in
      (* #vNICs at production scale against a 160-FE region pool. *)
      let table_bytes = Middlebox.rule_table_bytes kind ~mem_scale:1.0 in
      let v0 = vnics_capacity ~fes:0 ~table_bytes in
      let v1 = vnics_capacity ~fes:160 ~table_bytes in
      {
        kind;
        cps_gain = cps1 /. cps0;
        vnics_gain = float_of_int v1 /. float_of_int (max 1 v0);
        flows_gain = float_of_int flows1 /. float_of_int (max 1 flows0);
      })
    Middlebox.all

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 ?(seed = 1) ?(events = 200) () =
  let t = Testbed.create ~seed () in
  let rec cycle n =
    if n > 0 then begin
      match
        Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
          ~vnic:Testbed.heavy_vnic_id ()
      with
      | Error e -> failwith ("table4: " ^ e)
      | Ok o ->
        Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 5.0);
        (match Controller.fallback_vnic t.Testbed.ctl o with
        | Ok () -> ()
        | Error e -> failwith ("table4 fallback: " ^ e));
        Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 2.0);
        cycle (n - 1)
    end
  in
  cycle events;
  Controller.completion_times_ms t.Testbed.ctl

(* ------------------------------------------------------------------ *)
(* Fig. 14 *)

(* Every packet dropped in the testbed so far: fabric losses plus each
   vSwitch's drops. *)
let all_drops t =
  List.fold_left
    (fun acc s ->
      match Fabric.vswitch_opt t.Testbed.fabric s with
      | Some vs -> acc + Vswitch.total_drops vs
      | None -> acc)
    (Fabric.lost t.Testbed.fabric)
    (Topology.servers (Fabric.topology t.Testbed.fabric))

(* Every 0.25 s until [until] seconds from now, [sample ~at ~loss] gets
   the offset from now and the share of packets dropped since the last
   sample. *)
let sample_loss t ~until sample =
  let fabric = t.Testbed.fabric in
  let last_drops = ref (all_drops t) and last_del = ref (Fabric.delivered_to_vms fabric) in
  let t0 = Sim.now t.Testbed.sim in
  Sim.every t.Testbed.sim ~period:0.25 (fun sim ->
      let at = Sim.now sim -. t0 in
      if at <= until then begin
        let drops = all_drops t and delivered = Fabric.delivered_to_vms fabric in
        let dd = drops - !last_drops and dl = delivered - !last_del in
        last_drops := drops;
        last_del := delivered;
        sample ~at ~loss:(if dd + dl = 0 then 0.0 else float_of_int dd /. float_of_int (dd + dl));
        true
      end
      else false)

let fig14 ?(seed = 1) ?underlay_loss () =
  let t = Testbed.create ~seed () in
  let o = Testbed.offload t () in
  (match underlay_loss with
  | Some l -> Faults.set_default t.Testbed.faults (Faults.impair ~loss:l ())
  | None -> ());
  Controller.start t.Testbed.ctl;
  (* Steady load well under capacity. *)
  Array.iter
    (fun client ->
      ignore
        (Tcp_crr.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
           ~client ~server:t.Testbed.server ~rate:400.0 ~duration:14.0 ()
          : Tcp_crr.t))
    t.Testbed.clients;
  let crash_at = 4.0 +. Sim.now t.Testbed.sim in
  ignore
    (Sim.at t.Testbed.sim ~time:crash_at (fun _ ->
         match Controller.offload_fe_servers o with
         | s :: _ -> Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric s))
         | [] -> ())
      : Sim.handle);
  let samples = ref [] in
  sample_loss t ~until:14.0 (fun ~at ~loss -> samples := (at, loss) :: !samples);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 15.0);
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Chaos harness *)

type chaos_sample = { at : float; loss : float; outstanding : int }

type chaos_result = {
  samples : chaos_sample list;
  offered : int;
  established : int;
  completed : int;
  tracked : int;
  acked : int;
  timeouts : int;
  retx : int;
  resteered : int;
  local_fallbacks : int;
  local_bypass : int;
  dropped : int;
  untracked : int;
  outstanding_end : int;
  injected_drops : int;
  partition_drops : int;
  mass_suspected : int;
  fe_failures_declared : int;
  end_loss : float;
  recovered : bool;
  conservation_ok : bool;
}

(* Scripted fault schedule (times relative to load start): a loss ramp,
   an FE SmartNIC crash, optionally a hard partition of a surviving FE's
   server, then healing back to a perfect underlay — one run exercising
   every recovery path: monitor failover, BE timeout/re-steer, and the
   §C.2 suppression machinery en passant. *)
let chaos ?(seed = 42) ?(loss = 0.005) ?(partition = true) ?(duration = 13.0)
    ?(rate = 400.0) () =
  let t = Testbed.create ~seed () in
  let o = Testbed.offload t () in
  Controller.start t.Testbed.ctl;
  let sim = t.Testbed.sim in
  let faults = t.Testbed.faults in
  let t0 = Sim.now sim in
  Faults.at faults ~time:(t0 +. 1.0) (fun f ->
      Faults.set_default f (Faults.impair ~loss:(loss /. 2.0) ()));
  Faults.at faults ~time:(t0 +. 2.0) (fun f ->
      Faults.set_default f (Faults.impair ~loss ()));
  ignore
    (Sim.at sim ~time:(t0 +. 4.0) (fun _ ->
         match Controller.offload_fe_servers o with
         | s :: _ -> Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric s))
         | [] -> ())
      : Sim.handle);
  let cut = ref None in
  if partition then begin
    (* Cut a *surviving* FE's server (whoever leads the location config
       once failover has replaced the crashed one). *)
    Faults.at faults ~time:(t0 +. 6.0) (fun f ->
        match Controller.offload_fe_servers o with
        | s :: _ ->
          cut := Some s;
          Faults.cut_server f s
        | [] -> ());
    Faults.at faults ~time:(t0 +. 9.0) (fun f ->
        match !cut with Some s -> Faults.heal_server f s | None -> ())
  end;
  Faults.at faults ~time:(t0 +. 11.0) (fun f -> Faults.set_default f Faults.perfect);
  let gens =
    Array.to_list
      (Array.map
         (fun client ->
           Tcp_crr.start ~sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc ~client
             ~server:t.Testbed.server ~rate ~duration ())
         t.Testbed.clients)
  in
  let be = Controller.offload_be o in
  let samples = ref [] in
  sample_loss t ~until:duration (fun ~at ~loss ->
      samples := { at; loss; outstanding = Be.outstanding be } :: !samples);
  Sim.run sim ~until:(t0 +. duration +. 2.0);
  let samples = List.rev !samples in
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 gens in
  let c = Be.counters be in
  let v field = Stats.Counter.value field in
  let tail = List.filter (fun s -> s.at >= duration -. 1.5) samples in
  let end_loss =
    match tail with
    | [] -> 1.0
    | _ ->
      List.fold_left (fun acc s -> acc +. s.loss) 0.0 tail /. float_of_int (List.length tail)
  in
  let outstanding_end = Be.outstanding be in
  let mon = Controller.monitor t.Testbed.ctl in
  {
    samples;
    offered = sum Tcp_crr.offered;
    established = sum Tcp_crr.established;
    completed = sum Tcp_crr.completed;
    tracked = v c.Be.offload_tracked;
    acked = v c.Be.offload_acked;
    timeouts = v c.Be.offload_timeouts;
    retx = v c.Be.offload_retx;
    resteered = v c.Be.offload_resteered;
    local_fallbacks = v c.Be.local_fallback;
    local_bypass = v c.Be.local_bypass;
    dropped = v c.Be.offload_dropped;
    untracked = v c.Be.offload_untracked;
    outstanding_end;
    injected_drops = Faults.drops_injected faults;
    partition_drops = Faults.partition_drops faults;
    mass_suspected = Monitor.mass_failure_suspected mon;
    fe_failures_declared = Monitor.failures_declared mon;
    end_loss;
    recovered = end_loss <= 0.01;
    conservation_ok =
      v c.Be.offload_tracked
      = v c.Be.offload_acked + v c.Be.local_fallback + v c.Be.offload_dropped
        + outstanding_end;
  }

(* ------------------------------------------------------------------ *)
(* Table A1 *)

let tableA1 () =
  let p = Params.default in
  let sizes = [ 64; 128; 256; 512 ] in
  let rules = [ 0; 1; 8; 64; 100; 1000 ] in
  List.map
    (fun size ->
      ( size,
        List.map
          (fun n ->
            let cycles =
              Params.rule_lookup_cycles ~acl_rules_scanned:n ~lpm_depth:8 ~tables:5
              + Params.packet_cycles ~wire_bytes:size
            in
            (n, p.Params.cpu_hz /. float_of_int cycles /. 1e6))
          rules ))
    sizes

(* ------------------------------------------------------------------ *)
(* App. B.2 *)

type appB2_result = {
  offload_events : int;
  fes_provisioned : int;
  scale_out_events : int;
  scale_out_ratio : float;
}

let appB2 ?(seed = 1) ?(events = 2499) () =
  let rng = Rng.create seed in
  let trigger_u = 0.9939 in
  let trigger_demand = Region.cps_demand_quantile trigger_u in
  (* One FE matches a local vSwitch's slow-path capability, but offload
     triggers at 70% utilization of a vSwitch shared with other vNICs,
     so 4 FEs give roughly 4 x 2.2 = 8.8x the triggering vNIC's demand
     before more are needed (calibrated to App. B.2's 2.6%). *)
  let fe_capacity = 2.2 in
  let fes = ref 0 and scale_outs = ref 0 in
  for _ = 1 to events do
    (* Demand of a vNIC that crossed the offload threshold: the tail of
       the Table 1 distribution above the trigger quantile. *)
    let u = trigger_u +. Rng.float rng (1.0 -. trigger_u) in
    let demand = Region.cps_demand_quantile u /. trigger_demand in
    let needed = int_of_float (Float.ceil (demand /. fe_capacity)) in
    let provisioned = max 4 needed in
    fes := !fes + provisioned;
    if needed > 4 then incr scale_outs
  done;
  {
    offload_events = events;
    fes_provisioned = !fes;
    scale_out_events = !scale_outs;
    scale_out_ratio = float_of_int !scale_outs /. float_of_int events;
  }

(* ------------------------------------------------------------------ *)
(* Ablations *)

type sirius_vs_nezha = {
  nezha_cps : float;
  sirius_cps : float;
  sirius_pingpongs : int;
  nezha_notify : int;
}

let ablation_sirius ?(seed = 1) () =
  let nezha =
    let t = Testbed.create ~seed () in
    ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
    let cps = Testbed.measure_cps t ~concurrency:1024 () in
    let notify =
      List.fold_left
        (fun acc s ->
          match Controller.fe_service t.Testbed.ctl s with
          | Some fe -> acc + Stats.Counter.value (Fe.counters fe).Fe.notify_sent
          | None -> acc)
        0
        (Topology.servers (Fabric.topology t.Testbed.fabric))
    in
    (cps, notify)
  in
  let sirius =
    (* Same hardware: 4 idle server SmartNICs, organised as 2 pairs. *)
    let cards = [ 8; 9; 10; 11 ] in
    let t = Testbed.create ~seed ~reserve_servers:cards () in
    let pool = Sirius.create ~fabric:t.Testbed.fabric ~cards ~dpu_speedup:1.0 () in
    (match Sirius.offload_vnic pool ~server:t.Testbed.heavy_server ~vnic:Testbed.heavy_vnic_id with
    | Ok () -> ()
    | Error e -> failwith ("ablation_sirius: " ^ e));
    let cps = Testbed.measure_cps t ~concurrency:1024 () in
    (cps, Sirius.replication_pingpongs pool)
  in
  {
    nezha_cps = fst nezha;
    sirius_cps = fst sirius;
    sirius_pingpongs = snd sirius;
    nezha_notify = snd nezha;
  }

type lb_ablation = { mode : string; fe_rule_lookups : int; fe_cached_flows : int; cps : float }

let ablation_flow_vs_packet_lb ?(seed = 1) () =
  let run mode =
    let t = Testbed.create ~seed () in
    let o = Testbed.offload t ~num_fes:4 () in
    (match mode with
    | `Flow -> ()
    | `Packet -> Be.set_lb_mode (Controller.offload_be o) Be.Packet_level);
    let cps = Testbed.measure_cps t ~concurrency:1024 ~duration:2.0 () in
    let lookups, cached =
      List.fold_left
        (fun (l, c) s ->
          match Controller.fe_service t.Testbed.ctl s with
          | Some fe ->
            ( l + Stats.Counter.value (Fe.counters fe).Fe.rule_lookups,
              c + Fe.cached_flow_count fe )
          | None -> (l, c))
        (0, 0)
        (Controller.offload_fe_servers o)
    in
    {
      mode = (match mode with `Flow -> "flow-level" | `Packet -> "packet-level");
      fe_rule_lookups = lookups;
      fe_cached_flows = cached;
      cps;
    }
  in
  [ run `Flow; run `Packet ]

type state_size_ablation = { slot_bytes : int; flows_supported : int }

let ablation_state_size ?(seed = 1) () =
  List.map
    (fun slot ->
      let params = { Params.scaled with Params.state_slot_bytes = slot } in
      let t = Testbed.create ~seed ~params ~ruleset:(flows_ruleset ()) () in
      ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
      let gen =
        Persistent.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
          ~client:t.Testbed.clients.(0) ~server:t.Testbed.server ~target:260_000
          ~ramp_rate:40_000.0 ()
      in
      Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 10.0);
      let live = Persistent.live_flows gen () in
      Persistent.stop gen;
      { slot_bytes = slot; flows_supported = live })
    [ 64; 8 ]

type failover_retx = {
  failed_without_retx : int;
  failed_with_retx : int;
  retransmissions : int;
  completed_with_retx : int;
}

let failover_run ?(seed = 1) ~retransmit () =
  let t = Testbed.create ~seed () in
  let o = Testbed.offload t () in
  Controller.start t.Testbed.ctl;
  let gens =
    Array.to_list
      (Array.map
         (fun client ->
           Tcp_crr.start_closed ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng)
             ~vpc:t.Testbed.vpc ~client ~server:t.Testbed.server ~concurrency:32
             ~duration:12.0 ~conn_timeout:0.5 ~retransmit ())
         t.Testbed.clients)
  in
  ignore
    (Sim.schedule t.Testbed.sim ~delay:4.0 (fun _ ->
         match Controller.offload_fe_servers o with
         | s :: _ -> Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric s))
         | [] -> ())
      : Sim.handle);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 20.0);
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 gens in
  (sum Tcp_crr.failed, sum Tcp_crr.retransmissions, sum Tcp_crr.completed)

let ablation_failover_retransmit ?(seed = 1) () =
  let failed_without, _, _ = failover_run ~seed ~retransmit:false () in
  let failed_with, retx, completed = failover_run ~seed ~retransmit:true () in
  {
    failed_without_retx = failed_without;
    failed_with_retx = failed_with;
    retransmissions = retx;
    completed_with_retx = completed;
  }

type locality_row = { placement : string; p50_latency_us : float }

let ablation_fe_locality ?(seed = 1) () =
  let run name filter =
    let t = Testbed.create ~seed ~racks:6 ~servers_per_rack:8 () in
    (match filter with
    | None -> ()
    | Some want_version ->
      (* Mark only the most distant rack eligible. *)
      List.iter
        (fun s ->
          if Topology.rack_of (Fabric.topology t.Testbed.fabric) s = 4 then
            Vswitch.set_software_version (Fabric.vswitch t.Testbed.fabric s) want_version)
        (Topology.servers (Fabric.topology t.Testbed.fabric)));
    (match
       Controller.offload_vnic t.Testbed.ctl ~server:t.Testbed.heavy_server
         ~vnic:Testbed.heavy_vnic_id
         ?version_filter:(Option.map (fun v -> fun x -> x = v) filter)
         ()
     with
    | Ok _ -> ()
    | Error e -> failwith e);
    Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 5.0);
    let crr =
      Tcp_crr.start_closed ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
        ~client:t.Testbed.clients.(0) ~server:t.Testbed.server ~concurrency:8 ~duration:3.0 ()
    in
    Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 5.0);
    {
      placement = name;
      p50_latency_us = Stats.Histogram.percentile (Tcp_crr.latencies crr) 50.0 *. 1e6;
    }
  in
  [ run "same-rack FEs (default)" None; run "distant-rack FEs (forced)" (Some 7) ]

let ablation_notify_rate ?(seed = 1) () =
  let rng = Rng.create (seed + 3) in
  let ruleset = Middlebox.make_ruleset Middlebox.Load_balancer ~rng ~vni:9 ~mem_scale:1000.0 () in
  let t = Testbed.create ~seed ~ruleset () in
  ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
  (* Notifies fire for TX-first sessions: the BE initializes state before
     any rule table is consulted, so the FE's first lookup must report
     the statistics policy back (§3.2.2).  Drive outbound connections
     from the heavy VM. *)
  ignore
    (Tcp_crr.start_closed ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
       ~client:t.Testbed.server ~server:t.Testbed.clients.(0) ~concurrency:256 ~duration:2.0 ()
      : Tcp_crr.t);
  Sim.run t.Testbed.sim ~until:(Sim.now t.Testbed.sim +. 4.0);
  let notify, packets =
    List.fold_left
      (fun (n, p) s ->
        match Fabric.vswitch_opt t.Testbed.fabric s with
        | Some vs ->
          let c = Vswitch.counters vs in
          ( n + Stats.Counter.value c.Vswitch.notify_packets,
            p + Stats.Counter.value c.Vswitch.rx_packets + Stats.Counter.value c.Vswitch.tx_packets )
        | None -> (n, p))
      (0, 0)
      (Topology.servers (Fabric.topology t.Testbed.fabric))
  in
  if packets = 0 then 0.0 else float_of_int notify /. float_of_int packets

(* ------------------------------------------------------------------ *)
(* Fig. 13 at region scale, measured.  [Region.daily_overloads] answers
   the same question with a closed-form race model; this runs the race
   in the event simulation — thousands of modeled servers on a sharded
   cluster, demand spikes vs the report/detect/place/push pipeline. *)

type region_overloads = {
  region_before : Region_sim.result;
  region_after : Region_sim.result;
  resolved_pct : float;
}

let region_overloads ?(cfg = Region_sim.default_config) () =
  let ba = Region_sim.before_after cfg in
  let b = ba.Region_sim.before.Region_sim.overloads in
  let a = ba.Region_sim.after.Region_sim.overloads in
  {
    region_before = ba.Region_sim.before;
    region_after = ba.Region_sim.after;
    resolved_pct =
      100.0 *. (1.0 -. (float_of_int a /. float_of_int (max 1 b)));
  }

(* ------------------------------------------------------------------ *)
(* Region-scale MTTR chaos (DESIGN.md §13): a crash storm over the
   Fig. 13 region — Poisson server crashes (schedule frozen at setup),
   plus one primary-controller crash mid-storm with a standby takeover.
   Headline numbers: P50/P99 crash->intent-restored, blackholed demand
   during convergence, and the zero-late-blackholes gate.  The run is
   repeated with the same seed to assert byte-identical determinism
   under the sharded engine. *)

type region_mttr = {
  storm : Region_sim.result;
  storm_rerun_digest : int;
  storm_deterministic : bool;  (** rerun digest identical *)
}

let default_storm_config =
  {
    Region_sim.default_config with
    Region_sim.racks = 60;
    servers_per_rack = 4;
    shards = 6;
    duration = 20.0;
    crash_rate = 0.6;
    reboot_delay = 0.5;
    resync_delay = 0.05;
    ctl_crash_at = Some 8.0;
    ctl_failover = 0.5;
  }

let region_mttr ?(cfg = default_storm_config) () =
  let a = Region_sim.run cfg in
  let b = Region_sim.run cfg in
  {
    storm = a;
    storm_rerun_digest = b.Region_sim.digest;
    storm_deterministic = a.Region_sim.digest = b.Region_sim.digest;
  }

(* ------------------------------------------------------------------ *)
(* SLO-tracking ramp (DESIGN.md §15): the Region_sim diurnal ×10
   offered-load ramp driven by the real Slo decision core, run clean
   and with the rack-partition chaos variant, plus a same-seed rerun
   for the determinism gate.  The default partition window sits in the
   hold phase (42.5%–52.5% of the day) so the suppression logic is hit
   at peak pool. *)

type slo_ramp = {
  slo_clean : Region_sim.slo_result;
  slo_chaos : Region_sim.slo_result;
  slo_rerun_digest : int;
  slo_deterministic : bool;  (** clean rerun digest identical *)
}

let slo_smoke_config =
  let cfg = Region_sim.default_slo_config in
  {
    cfg with
    Region_sim.slo_duration = 150.0;
    slo =
      {
        cfg.Region_sim.slo with
        Region_sim.Slo.cooldown = 2.0;
        warmup = 3.0;
        suppress_hold = 8.0;
      };
    flap_window = 15.0;
  }

let slo_ramp ?(cfg = Region_sim.default_slo_config) ?partition () =
  let partition =
    match partition with
    | Some p -> p
    | None ->
      (cfg.Region_sim.slo_duration *. 0.425, cfg.Region_sim.slo_duration *. 0.10)
  in
  let clean = Region_sim.run_slo { cfg with Region_sim.slo_partition = None } in
  let chaos =
    Region_sim.run_slo { cfg with Region_sim.slo_partition = Some partition }
  in
  let rerun = Region_sim.run_slo { cfg with Region_sim.slo_partition = None } in
  {
    slo_clean = clean;
    slo_chaos = chaos;
    slo_rerun_digest = rerun.Region_sim.slo_digest;
    slo_deterministic = clean.Region_sim.slo_digest = rerun.Region_sim.slo_digest;
  }

(* ------------------------------------------------------------------ *)
(* Crash/restart endurance on the small testbed: [cycles] FE-host
   crash+reboot cycles against a live offload, traffic bursts
   interleaved, then the books are balanced — controller conservation
   invariant, BE tracked-send conservation, and zero leaked [Pbatch]
   arena batches across the whole storm. *)

type crash_cycles = {
  cycles : int;
  cyc_crashes : int;
  cyc_restarts : int;
  cyc_reconciles : int;
  cyc_repairs : int;
  conservation_ok : bool;  (** {!Controller.check_conservation} at the end *)
  be_conservation_ok : bool;
      (** tracked = acked + local_fallback + dropped + outstanding *)
  batches_leaked : int;  (** Pbatch (fresh + reuses - recycles) delta *)
  final_cps : float;  (** traffic still flows after the storm *)
}

let crash_cycles ?(cycles = 100) ?(seed = 11) () =
  let tb = Testbed.create ~seed () in
  let o = Testbed.offload tb () in
  let faults = tb.Testbed.faults in
  let ctl = tb.Testbed.ctl in
  let f0, r0, c0 = Pbatch.pool_stats () in
  let fes = Array.of_list (Controller.offload_fe_servers o) in
  if Array.length fes = 0 then failwith "crash_cycles: offload has no FEs";
  for i = 0 to cycles - 1 do
    let victim = fes.(i mod Array.length fes) in
    Faults.crash_server faults ~reboot_after:0.05 victim;
    (* A traffic burst against the vNIC while the storm rages, every
       few cycles (each burst drains in-flight batches through crashed
       and healthy FEs alike). *)
    if i mod 10 = 0 then
      ignore (Testbed.run_crr tb ~rate:200.0 ~duration:0.2 ~settle:0.4 () : Tcp_crr.t)
    else Sim.run tb.Testbed.sim ~until:(Sim.now tb.Testbed.sim +. 0.3)
  done;
  (* Let the last reboot's reconciliation settle, then measure. *)
  Sim.run tb.Testbed.sim ~until:(Sim.now tb.Testbed.sim +. 3.0);
  let final_cps = Testbed.measure_cps tb ~concurrency:64 ~duration:2.0 () in
  let f1, r1, c1 = Pbatch.pool_stats () in
  let be = Controller.offload_be o in
  let c = Be.counters be in
  let v = Stats.Counter.value in
  let be_ok =
    v c.Be.offload_tracked
    = v c.Be.offload_acked + v c.Be.local_fallback + v c.Be.offload_dropped
      + Be.outstanding be
  in
  {
    cycles;
    cyc_crashes = Faults.server_crashes faults;
    cyc_restarts = Faults.server_restarts faults;
    cyc_reconciles = Controller.reconciles ctl;
    cyc_repairs = Controller.repairs ctl;
    conservation_ok = Controller.check_conservation ctl;
    be_conservation_ok = be_ok;
    batches_leaked = f1 - f0 + (r1 - r0) - (c1 - c0);
    final_cps;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoders: one [json_of_*] per result record, so every consumer
   (the bench registry, the nezha_sim subcommands) shares a single
   schema instead of hand-rolling objects that can drift apart. *)

let json_of_fig9_row (r : fig9_row) =
  Json.Obj
    [
      ("fes", Json.Int r.fes);
      ("cps_gain", Json.Float r.cps_gain);
      ("flows_gain", Json.Float r.flows_gain);
      ("vnics_gain", Json.Float r.vnics_gain);
    ]

let json_of_fig10_row (r : fig10_row) =
  Json.Obj
    [
      ("vcpus", Json.Int r.vcpus);
      ("cps_without", Json.Float r.cps_without);
      ("cps_with", Json.Float r.cps_with);
    ]

let json_of_fig11_point (p : fig11_point) =
  Json.Obj
    [
      ("t", Json.Float p.t);
      ("cps", Json.Float p.cps);
      ("be_cpu", Json.Float p.be_cpu);
      ("fe_cpu", Json.Float p.fe_cpu);
      ("n_fes", Json.Int p.n_fes);
    ]

let json_of_fig12_row (r : fig12_row) =
  Json.Obj
    [
      ("load", Json.Float r.load);
      ("lat_without_us", Json.Float r.lat_without_us);
      ("lat_with_us", Json.Float r.lat_with_us);
      ("lost_without", Json.Float r.lost_without);
      ("lost_with", Json.Float r.lost_with);
    ]

let json_of_latency_split (s : latency_split) =
  Json.Obj
    [
      ("traces", Json.Int s.traces);
      ("p50_us", Json.Float s.p50_us);
      ("p50_local_us", Json.Float s.p50_local_us);
      ("p50_remote_us", Json.Float s.p50_remote_us);
      ("p99_us", Json.Float s.p99_us);
      ("p99_local_us", Json.Float s.p99_local_us);
      ("p99_remote_us", Json.Float s.p99_remote_us);
    ]

let json_of_fig12_attr_row (r : fig12_attr_row) =
  Json.Obj
    [
      ("load", Json.Float r.attr_load);
      ("without", json_of_latency_split r.without_nezha);
      ("with", json_of_latency_split r.with_nezha);
    ]

let json_of_table3_row (r : table3_row) =
  Json.Obj
    [
      ("middlebox", Json.String (Middlebox.to_string r.kind));
      ("cps_gain", Json.Float r.cps_gain);
      ("vnics_gain", Json.Float r.vnics_gain);
      ("flows_gain", Json.Float r.flows_gain);
    ]

let json_of_chaos_sample (s : chaos_sample) =
  Json.Obj
    [
      ("t", Json.Float s.at);
      ("loss", Json.Float s.loss);
      ("outstanding", Json.Int s.outstanding);
    ]

let json_of_chaos_result (r : chaos_result) =
  Json.Obj
    [
      ("offered", Json.Int r.offered);
      ("established", Json.Int r.established);
      ("completed", Json.Int r.completed);
      ("tracked", Json.Int r.tracked);
      ("acked", Json.Int r.acked);
      ("timeouts", Json.Int r.timeouts);
      ("retx", Json.Int r.retx);
      ("resteered", Json.Int r.resteered);
      ("local_fallbacks", Json.Int r.local_fallbacks);
      ("local_bypass", Json.Int r.local_bypass);
      ("dropped", Json.Int r.dropped);
      ("untracked", Json.Int r.untracked);
      ("outstanding_end", Json.Int r.outstanding_end);
      ("injected_drops", Json.Int r.injected_drops);
      ("partition_drops", Json.Int r.partition_drops);
      ("mass_suspected", Json.Int r.mass_suspected);
      ("fe_failures_declared", Json.Int r.fe_failures_declared);
      ("end_loss", Json.Float r.end_loss);
      ("recovered", Json.Bool r.recovered);
      ("conservation_ok", Json.Bool r.conservation_ok);
      ("samples", Json.List (List.map json_of_chaos_sample r.samples));
    ]

let json_of_appB2_result (r : appB2_result) =
  Json.Obj
    [
      ("offload_events", Json.Int r.offload_events);
      ("fes_provisioned", Json.Int r.fes_provisioned);
      ("scale_out_events", Json.Int r.scale_out_events);
      ("scale_out_ratio", Json.Float r.scale_out_ratio);
    ]

let json_of_sirius_vs_nezha (r : sirius_vs_nezha) =
  Json.Obj
    [
      ("nezha_cps", Json.Float r.nezha_cps);
      ("sirius_cps", Json.Float r.sirius_cps);
      ("sirius_pingpongs", Json.Int r.sirius_pingpongs);
      ("nezha_notify", Json.Int r.nezha_notify);
      ("nezha_over_sirius", Json.Float (r.nezha_cps /. r.sirius_cps));
    ]

let json_of_lb_ablation (r : lb_ablation) =
  Json.Obj
    [
      ("mode", Json.String r.mode);
      ("fe_rule_lookups", Json.Int r.fe_rule_lookups);
      ("fe_cached_flows", Json.Int r.fe_cached_flows);
      ("cps", Json.Float r.cps);
    ]

let json_of_state_size_ablation (r : state_size_ablation) =
  Json.Obj
    [
      ("slot_bytes", Json.Int r.slot_bytes);
      ("flows_supported", Json.Int r.flows_supported);
    ]

let json_of_failover_retx (r : failover_retx) =
  Json.Obj
    [
      ("failed_without_retx", Json.Int r.failed_without_retx);
      ("failed_with_retx", Json.Int r.failed_with_retx);
      ("retransmissions", Json.Int r.retransmissions);
      ("completed_with_retx", Json.Int r.completed_with_retx);
    ]

let json_of_locality_row (r : locality_row) =
  Json.Obj
    [
      ("placement", Json.String r.placement);
      ("p50_latency_us", Json.Float r.p50_latency_us);
    ]

let json_of_region_result (r : Region_sim.result) =
  Json.Obj
    [
      ("servers", Json.Int r.Region_sim.servers);
      ("vnics_modeled", Json.Int r.Region_sim.vnics_modeled);
      ("flows_modeled", Json.Int r.Region_sim.flows_modeled);
      ("hotspots", Json.Int r.Region_sim.hotspots);
      ("events", Json.Int r.Region_sim.events);
      ("messages", Json.Int r.Region_sim.messages);
      ("ticks", Json.Int r.Region_sim.ticks);
      ("flow_expiries", Json.Int r.Region_sim.flow_expiries);
      ("overloads", Json.Int r.Region_sim.overloads);
      ("overload_ticks", Json.Int r.Region_sim.overload_ticks);
      ("detections", Json.Int r.Region_sim.detections);
      ("activations", Json.Int r.Region_sim.activations);
      ("packets_modeled", Json.Float r.Region_sim.packets_modeled);
      ("pool_reused", Json.Int r.Region_sim.pool_reused);
      ("pool_fresh", Json.Int r.Region_sim.pool_fresh);
      ("crashes", Json.Int r.Region_sim.crashes);
      ("restarts", Json.Int r.Region_sim.restarts);
      ("mttr_p50_s", Json.Float r.Region_sim.mttr_p50);
      ("mttr_p99_s", Json.Float r.Region_sim.mttr_p99);
      ("blackholed_ticks", Json.Int r.Region_sim.blackholed_ticks);
      ("late_blackholed", Json.Int r.Region_sim.late_blackholed);
      ("ctl_takeovers", Json.Int r.Region_sim.ctl_takeovers);
      ("digest", Json.Int r.Region_sim.digest);
    ]

let json_of_region_mttr (r : region_mttr) =
  Json.Obj
    [
      ("storm", json_of_region_result r.storm);
      ("rerun_digest", Json.Int r.storm_rerun_digest);
      ("deterministic", Json.Bool r.storm_deterministic);
    ]

let json_of_crash_cycles (r : crash_cycles) =
  Json.Obj
    [
      ("cycles", Json.Int r.cycles);
      ("crashes", Json.Int r.cyc_crashes);
      ("restarts", Json.Int r.cyc_restarts);
      ("reconciles", Json.Int r.cyc_reconciles);
      ("repairs", Json.Int r.cyc_repairs);
      ("conservation_ok", Json.Bool r.conservation_ok);
      ("be_conservation_ok", Json.Bool r.be_conservation_ok);
      ("batches_leaked", Json.Int r.batches_leaked);
      ("final_cps", Json.Float r.final_cps);
    ]

let json_of_region_overloads (r : region_overloads) =
  Json.Obj
    [
      ("before", json_of_region_result r.region_before);
      ("after", json_of_region_result r.region_after);
      ("resolved_pct", Json.Float r.resolved_pct);
    ]

let json_of_slo_result (r : Region_sim.slo_result) =
  Json.Obj
    [
      ("ticks", Json.Int r.Region_sim.slo_ticks);
      ("offered_ratio", Json.Float r.Region_sim.offered_ratio);
      ("pool_min", Json.Int r.Region_sim.pool_min);
      ("pool_max", Json.Int r.Region_sim.pool_max);
      ("pool_at_peak", Json.Int r.Region_sim.pool_at_peak);
      ("pool_at_end", Json.Int r.Region_sim.pool_at_end);
      ("p99_peak_s", Json.Float r.Region_sim.p99_peak);
      ("within_budget_fraction", Json.Float r.Region_sim.within_budget_fraction);
      ("scale_outs", Json.Int r.Region_sim.slo_scale_outs);
      ("scale_ins", Json.Int r.Region_sim.slo_scale_ins);
      ("oscillations", Json.Int r.Region_sim.oscillations);
      ("suppressed_ticks", Json.Int r.Region_sim.slo_suppressed_ticks);
      ("partition_suspects_max", Json.Int r.Region_sim.partition_suspects_max);
      ("pool_moves_in_partition", Json.Int r.Region_sim.pool_moves_in_partition);
      ("digest", Json.Int r.Region_sim.slo_digest);
    ]

let json_of_slo_ramp (r : slo_ramp) =
  Json.Obj
    [
      ("clean", json_of_slo_result r.slo_clean);
      ("chaos", json_of_slo_result r.slo_chaos);
      ("rerun_digest", Json.Int r.slo_rerun_digest);
      ("deterministic", Json.Bool r.slo_deterministic);
    ]
