open Nezha_engine
open Nezha_net
open Nezha_vswitch
module Trace = Nezha_telemetry.Trace

type drop_reason = No_vxlan | No_such_server | No_vswitch | Fault_injected

type t = {
  sim : Sim.t; (* gateway / control shard *)
  sims : Sim.t array; (* per-server simulation (shard); defaults to [sim] *)
  topology : Topology.t;
  gateway : Gateway.t;
  switches : Vswitch.t option array;
  vms : (int * Vnic.id, Vm.t) Hashtbl.t;
  mutable delivered_to_vms : int;
  mutable lost_no_vxlan : int;
  mutable lost_no_such_server : int;
  mutable lost_no_vswitch : int;
  mutable lost_fault : int;
  mutable faults : Faults.t option;
  mutable tap : (time:float -> Packet.t -> unit) option;
  mutable tracer : Trace.t option;
  mutable lifecycle : (server:int -> [ `Crashed | `Restarted ] -> unit) list;
}

let count_lost t = function
  | No_vxlan -> t.lost_no_vxlan <- t.lost_no_vxlan + 1
  | No_such_server -> t.lost_no_such_server <- t.lost_no_such_server + 1
  | No_vswitch -> t.lost_no_vswitch <- t.lost_no_vswitch + 1
  | Fault_injected -> t.lost_fault <- t.lost_fault + 1

let ep_name = function
  | Faults.Gateway -> "gw"
  | Faults.Server sid -> "s" ^ string_of_int sid

(* The simulation an endpoint's events run on.  With a sharded engine
   each server lives on its rack's shard; the gateway stays on the base
   (control) simulation. *)
let sim_of_ep t = function
  | Faults.Gateway -> t.sim
  | Faults.Server sid -> t.sims.(sid)

(* Wire transits are the only place underlay time passes, so each
   surviving hop emits one [Wire] span covering schedule-to-delivery —
   fault-injected extra delay included.  A hop still carrying NSH
   metadata exists only because of load sharing (the BE↔FE legs), so it
   is attributed [Remote]. *)
let trace_wire t ~src ~dst ~dur pkt =
  match t.tracer with
  | Some tr when pkt.Packet.trace_id <> 0 ->
    let now = Sim.now (sim_of_ep t src) in
    let site = if pkt.Packet.nsh <> None then Trace.Remote else Trace.Local in
    Trace.add_span tr ~id:pkt.Packet.trace_id ~name:"wire" ~component:"fabric"
      ~kind:Trace.Wire ~site
      ~args:[ ("src", ep_name src); ("dst", ep_name dst) ]
      ~t0:now ~t1:(now +. dur) ()
  | Some _ | None -> ()

let trace_fault_drop t ~src ~dst pkt =
  match t.tracer with
  | Some tr when pkt.Packet.trace_id <> 0 ->
    Trace.mark tr ~id:pkt.Packet.trace_id ~name:"fault_drop" ~component:"fabric"
      ~args:[ ("src", ep_name src); ("dst", ep_name dst) ]
      ~now:(Sim.now (sim_of_ep t src)) ()
  | Some _ | None -> ()

(* One traversal of the [src -> dst] hop: consult the impairment plane,
   then schedule [deliver] on the surviving packet(s).  Duplication
   delivers a fresh copy — downstream processing mutates packets in
   place, so the twin must not alias the original.  The twin also leaves
   the trace: keeping it would double-count every stage downstream of
   the duplication against the one measured end-to-end interval. *)
let transit t ~src ~dst ~delay pkt deliver =
  let ssim = sim_of_ep t src and dsim = sim_of_ep t dst in
  match t.faults with
  | None ->
    trace_wire t ~src ~dst ~dur:delay pkt;
    Sim.cross ssim dsim ~delay (fun _ -> deliver pkt)
  | Some f -> (
    match Faults.consult f ~src ~dst with
    | Faults.Drop ->
      trace_fault_drop t ~src ~dst pkt;
      count_lost t Fault_injected
    | Faults.Pass ->
      trace_wire t ~src ~dst ~dur:delay pkt;
      Sim.cross ssim dsim ~delay (fun _ -> deliver pkt)
    | Faults.Delay extra ->
      trace_wire t ~src ~dst ~dur:(delay +. extra) pkt;
      Sim.cross ssim dsim ~delay:(delay +. extra) (fun _ -> deliver pkt)
    | Faults.Duplicate extra ->
      let twin = Packet.copy pkt in
      twin.Packet.trace_id <- 0;
      trace_wire t ~src ~dst ~dur:delay pkt;
      Sim.cross ssim dsim ~delay (fun _ -> deliver pkt);
      Sim.cross ssim dsim ~delay:(delay +. extra) (fun _ -> deliver twin))

let deliver_at_server t target pkt =
  match t.switches.(target) with
  | Some vs -> Vswitch.from_net vs pkt
  | None -> count_lost t No_vswitch

let create ~sim ~topology =
  let t =
    {
      sim;
      sims = Array.make (Topology.server_count topology) sim;
      topology;
      gateway = Gateway.create ();
      switches = Array.make (Topology.server_count topology) None;
      vms = Hashtbl.create 64;
      delivered_to_vms = 0;
      lost_no_vxlan = 0;
      lost_no_such_server = 0;
      lost_no_vswitch = 0;
      lost_fault = 0;
      faults = None;
      tap = None;
      tracer = None;
      lifecycle = [];
    }
  in
  Gateway.set_forward t.gateway (fun ~dst pkt ->
      match Topology.server_of_ip topology dst with
      | None -> count_lost t No_such_server
      | Some target ->
        let delay = Topology.latency_to_gateway topology target in
        transit t ~src:Faults.Gateway ~dst:(Faults.Server target) ~delay pkt
          (deliver_at_server t target));
  t

let sim t = t.sim
let server_sim t sid = t.sims.(sid)
let topology t = t.topology
let gateway t = t.gateway

let on_lifecycle t w = t.lifecycle <- t.lifecycle @ [ w ]

(* Attaching a fault plane also wires the node-lifecycle half: crash
   hooks wipe the vSwitch's volatile state and down its NIC at the
   crash instant (the state is gone *now*, not when someone notices),
   restart hooks bring the NIC back; either way registered lifecycle
   watchers (the controller) are told so reconciliation can start. *)
let set_faults t f =
  t.faults <- f;
  match f with
  | None -> ()
  | Some f ->
    Faults.set_shard_lookup f (fun sid -> t.sims.(sid));
    Faults.on_crash f (fun sid ->
        (match t.switches.(sid) with
        | Some vs ->
          Vswitch.wipe_volatile vs;
          Smartnic.crash (Vswitch.nic vs)
        | None -> ());
        List.iter (fun w -> w ~server:sid `Crashed) t.lifecycle);
    Faults.on_restart f (fun sid ->
        (match t.switches.(sid) with
        | Some vs -> Smartnic.recover (Vswitch.nic vs)
        | None -> ());
        List.iter (fun w -> w ~server:sid `Restarted) t.lifecycle)

let faults t = t.faults

(* Installing a tracer here covers the underlay only; the caller is
   expected to install the same recorder on every vSwitch and VM so the
   stage spans tile (see Testbed). *)
let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let deliver_to_server t ~src pkt =
  (match t.tap with Some tap -> tap ~time:(Sim.now t.sims.(src)) pkt | None -> ());
  match pkt.Packet.vxlan with
  | None -> count_lost t No_vxlan
  | Some v ->
    let outer_dst = v.Packet.outer_dst in
    if Ipv4.equal outer_dst (Topology.gateway_ip t.topology) then begin
      let delay = Topology.latency_to_gateway t.topology src in
      transit t ~src:(Faults.Server src) ~dst:Faults.Gateway ~delay pkt (fun pkt ->
          Gateway.handle t.gateway pkt)
    end
    else begin
      match Topology.server_of_ip t.topology outer_dst with
      | None -> count_lost t No_such_server
      | Some target ->
        let delay = Topology.latency t.topology src target in
        transit t ~src:(Faults.Server src) ~dst:(Faults.Server target) ~delay pkt
          (deliver_at_server t target)
    end

let deliver_batch_at_server t target batch =
  match t.switches.(target) with
  | Some vs -> Vswitch.from_net_batch vs batch
  | None ->
    Pbatch.iter batch (fun _ -> count_lost t No_vswitch);
    Pbatch.recycle batch

(* The run [deliver_batch_to_server] has open: packets bound for one
   server under one delay.  While every packet so far belongs to it,
   the run is that prefix of the burst and nothing is copied. *)
type run = No_run | Prefix of int * float | Run of int * float * Pbatch.t

let send_run t ~src ~target ~delay rb =
  Sim.cross t.sims.(src) t.sims.(target) ~delay (fun _ -> deliver_batch_at_server t target rb)

(* The open run as a batch of its own, [i] being the current position:
   needed once a packet at [i] leaves the prefix. *)
let detach batch i = function
  | Prefix (target, delay) -> Run (target, delay, Pbatch.sub batch 0 i)
  | (No_run | Run _) as run -> run

let flush_run t ~src batch i run =
  match detach batch i run with
  | Run (target, delay, rb) -> send_run t ~src ~target ~delay rb
  | No_run | Prefix _ -> ()

(* Add packet [i] to the open run when it shares the destination and
   delay; otherwise flush the run and open a new one. *)
let join_run t ~src batch i run ~target ~delay =
  match run with
  | No_run when i = 0 -> Prefix (target, delay)
  | Prefix (tgt, d) when tgt = target && d = delay -> run
  | Run (tgt, d, rb) when tgt = target && d = delay ->
    Pbatch.push rb (Pbatch.get batch i);
    run
  | No_run | Prefix _ | Run _ ->
    flush_run t ~src batch i run;
    Run (target, delay, Pbatch.singleton (Pbatch.get batch i))

let trace_hop t ~src ~target ~dur pkt =
  if pkt.Packet.trace_id <> 0 then
    trace_wire t ~src:(Faults.Server src) ~dst:(Faults.Server target) ~dur pkt

(* Batched egress: one pass in arrival order carves the burst into
   maximal consecutive runs bound for the same server under the same
   delay; each run crosses the wire as one scheduled delivery into
   [Vswitch.from_net_batch], and a run that is the whole burst crosses
   as the burst itself.  The impairment plane is consulted per packet,
   in order — fault RNG draws line up exactly with a packet-at-a-time
   burst — and any packet it deflects (drop, extra delay, duplicate
   twin) flushes or bypasses the run so arrival order and delivery
   times match a packet-at-a-time burst.  Owns [batch]. *)
let deliver_batch_to_server t ~src batch =
  let run = ref No_run in
  for i = 0 to Pbatch.length batch - 1 do
    let pkt = Pbatch.get batch i in
    (match t.tap with Some tap -> tap ~time:(Sim.now t.sims.(src)) pkt | None -> ());
    match pkt.Packet.vxlan with
    | None ->
      run := detach batch i !run;
      count_lost t No_vxlan
    | Some v -> (
      let outer_dst = v.Packet.outer_dst in
      if Ipv4.equal outer_dst (Topology.gateway_ip t.topology) then begin
        flush_run t ~src batch i !run;
        run := No_run;
        let delay = Topology.latency_to_gateway t.topology src in
        transit t ~src:(Faults.Server src) ~dst:Faults.Gateway ~delay pkt (fun pkt ->
            Gateway.handle t.gateway pkt)
      end
      else
        match Topology.server_of_ip t.topology outer_dst with
        | None ->
          run := detach batch i !run;
          count_lost t No_such_server
        | Some target -> (
          let delay = Topology.latency t.topology src target in
          let outcome =
            match t.faults with
            | None -> Faults.Pass
            | Some f -> Faults.consult f ~src:(Faults.Server src) ~dst:(Faults.Server target)
          in
          match outcome with
          | Faults.Drop ->
            run := detach batch i !run;
            trace_fault_drop t ~src:(Faults.Server src) ~dst:(Faults.Server target) pkt;
            count_lost t Fault_injected
          | Faults.Pass ->
            trace_hop t ~src ~target ~dur:delay pkt;
            run := join_run t ~src batch i !run ~target ~delay
          | Faults.Delay extra ->
            flush_run t ~src batch i !run;
            run := No_run;
            trace_hop t ~src ~target ~dur:(delay +. extra) pkt;
            Sim.cross t.sims.(src) t.sims.(target) ~delay:(delay +. extra) (fun _ ->
                deliver_at_server t target pkt)
          | Faults.Duplicate extra ->
            let twin = Packet.copy pkt in
            twin.Packet.trace_id <- 0;
            trace_hop t ~src ~target ~dur:delay pkt;
            run := join_run t ~src batch i !run ~target ~delay;
            Sim.cross t.sims.(src) t.sims.(target) ~delay:(delay +. extra) (fun _ ->
                deliver_at_server t target twin)))
  done;
  match !run with
  | Prefix (target, delay) -> send_run t ~src ~target ~delay batch
  | No_run | Run _ ->
    flush_run t ~src batch (Pbatch.length batch) !run;
    Pbatch.recycle batch

(* Liveness probe (§4.4), as a wire round-trip through the monitor's
   vantage point (the gateway side): request leg, vSwitch check at the
   target, reply leg.  Each leg is subject to the impairment plane, so a
   partition or lossy link produces genuinely missed probes. *)
let ping t ~dst ~reply =
  let leg ~src ~dst =
    match t.faults with
    | None -> Some 0.0
    | Some f -> (
      match Faults.consult f ~src ~dst with
      | Faults.Drop -> None
      | Faults.Pass -> Some 0.0
      | Faults.Delay extra -> Some extra
      (* A duplicated probe is still one probe; ignore the twin. *)
      | Faults.Duplicate _ -> Some 0.0)
  in
  if dst >= 0 && dst < Array.length t.switches then begin
    match leg ~src:Faults.Gateway ~dst:(Faults.Server dst) with
    | None -> ()
    | Some extra ->
      let d1 = Topology.latency_to_gateway t.topology dst +. extra in
      Sim.cross t.sim t.sims.(dst) ~delay:d1 (fun _ ->
          match t.switches.(dst) with
          | Some vs when not (Smartnic.is_crashed (Vswitch.nic vs)) -> (
            match leg ~src:(Faults.Server dst) ~dst:Faults.Gateway with
            | None -> ()
            | Some extra ->
              let d2 = Topology.latency_to_gateway t.topology dst +. extra in
              Sim.cross t.sims.(dst) t.sim ~delay:d2 (fun _ -> reply ()))
          | Some _ | None -> ())
  end

let add_server t ?sim sid ~params =
  if sid < 0 || sid >= Array.length t.switches then invalid_arg "Fabric.add_server: bad id";
  (match t.switches.(sid) with
  | Some _ -> invalid_arg "Fabric.add_server: server already populated"
  | None -> ());
  (match sim with Some s -> t.sims.(sid) <- s | None -> ());
  let vs =
    Vswitch.create ~sim:t.sims.(sid) ~params
      ~name:(Printf.sprintf "vs-%d" sid)
      ~underlay_ip:(Topology.underlay_ip t.topology sid)
      ~gateway:(Topology.gateway_ip t.topology) ()
  in
  (* On-demand vNIC-server learning from the gateway (200 ms interval). *)
  Vswitch.set_mapping_learner vs
    (Some
       (fun addr ->
         match Gateway.lookup t.gateway addr with
         | Some targets -> Some (targets, 0.2)
         | None -> None));
  Vswitch.set_sink vs
    {
      Vswitch.on_output =
        (function
        | Vswitch.To_net pkt -> deliver_to_server t ~src:sid pkt
        | Vswitch.To_vm (vid, pkt) -> (
          t.delivered_to_vms <- t.delivered_to_vms + 1;
          match Hashtbl.find_opt t.vms (sid, vid) with
          | Some vm -> Vm.deliver vm pkt
          | None -> ()));
      on_net_batch = (fun batch -> deliver_batch_to_server t ~src:sid batch);
    };
  t.switches.(sid) <- Some vs;
  vs

let vswitch_opt t sid =
  if sid < 0 || sid >= Array.length t.switches then None else t.switches.(sid)

let vswitch t sid =
  match vswitch_opt t sid with Some vs -> vs | None -> raise Not_found

let server_of_vswitch t vs =
  let n = Array.length t.switches in
  let rec probe i =
    if i >= n then raise Not_found
    else begin
      match t.switches.(i) with Some v when v == vs -> i | Some _ | None -> probe (i + 1)
    end
  in
  probe 0

let attach_vm t sid vid vm = Hashtbl.replace t.vms (sid, vid) vm

let vm_of t sid vid = Hashtbl.find_opt t.vms (sid, vid)

let set_tap t tap = t.tap <- tap

let delivered_to_vms t = t.delivered_to_vms

let lost_by t = function
  | No_vxlan -> t.lost_no_vxlan
  | No_such_server -> t.lost_no_such_server
  | No_vswitch -> t.lost_no_vswitch
  | Fault_injected -> t.lost_fault

let lost t = t.lost_no_vxlan + t.lost_no_such_server + t.lost_no_vswitch + t.lost_fault

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  T.register_counter reg ~name:"fabric/delivered_to_vms" (fun () -> t.delivered_to_vms);
  T.register_counter reg ~name:"fabric/lost/no_vxlan" (fun () -> t.lost_no_vxlan);
  T.register_counter reg ~name:"fabric/lost/no_such_server" (fun () ->
      t.lost_no_such_server);
  T.register_counter reg ~name:"fabric/lost/no_vswitch" (fun () -> t.lost_no_vswitch);
  T.register_counter reg ~name:"fabric/lost/fault_injected" (fun () -> t.lost_fault);
  T.register_counter reg ~name:"fabric/gateway/forwarded" (fun () ->
      Gateway.forwarded t.gateway);
  T.register_counter reg ~name:"fabric/gateway/dropped" (fun () ->
      Gateway.dropped t.gateway);
  (* Arena traffic of the shared packet-batch pool since registration:
     batches taken and returned.  Once the run is quiescent the two
     agree, or the dataplane leaked.  Only this run's share is
     published: the pool is process-global, and whether a take finds a
     recycled batch depends on what earlier runs left behind. *)
  let taken () =
    let fresh, reused, _ = Pbatch.pool_stats () in
    fresh + reused
  in
  let recycled () =
    let _, _, r = Pbatch.pool_stats () in
    r
  in
  let taken0 = taken () and recycled0 = recycled () in
  T.register_counter reg ~name:"pbatch/pool/taken" (fun () -> taken () - taken0);
  T.register_counter reg ~name:"pbatch/pool/recycled" (fun () -> recycled () - recycled0);
  match t.faults with Some f -> Faults.register_telemetry f reg | None -> ()
