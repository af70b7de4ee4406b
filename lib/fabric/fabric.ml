open Nezha_engine
open Nezha_net
open Nezha_vswitch
module Trace = Nezha_telemetry.Trace

type drop_reason = No_vxlan | No_such_server | No_vswitch | Fault_injected

type t = {
  sim : Sim.t; (* gateway / control shard *)
  sims : Sim.t array; (* per-server simulation (shard); defaults to [sim] *)
  endpoints : Faults.endpoint array; (* [Faults.Server sid], made once *)
  topology : Topology.t;
  gateway : Gateway.t;
  switches : Vswitch.t option array;
  vms : Vm.t Vnic.Id_table.t option array; (* per server, made at its first attach *)
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

(* Wire crossings are the only place underlay time passes, so each
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

let vm_of t sid vid =
  if sid < 0 || sid >= Array.length t.vms then None
  else match t.vms.(sid) with Some vms -> Vnic.Id_table.find_opt vms vid | None -> None

(* The impairment plane's verdict on one crossing of [src -> dst], by a
   packet or a probe: the one place the plane is read.  Without a plane
   every hop passes, at zero rng cost. *)
let verdict t ~src ~dst =
  match t.faults with None -> Faults.Pass | Some f -> Faults.consult f ~src ~dst

let deliver_batch_at_server t target batch =
  match t.switches.(target) with
  | Some vs -> Vswitch.from_net_batch vs batch
  | None ->
    Pbatch.iter batch (fun _ -> count_lost t No_vswitch);
    Pbatch.recycle batch

(* The run a burst has open: packets bound for one server under one
   delay.  While every packet so far belongs to it, the run is that
   prefix of the burst and nothing is copied. *)
type run = No_run | Prefix of int * float | Run of int * float * Pbatch.t

let send_run t ~src ~target ~delay rb =
  Sim.cross (sim_of_ep t src) t.sims.(target) ~delay (fun _ ->
      deliver_batch_at_server t target rb)

(* A packet that crosses alone: the gateway handles it, a server takes
   it as a burst of one. *)
let send_one t ~src ~dst ~delay pkt =
  match dst with
  | Faults.Server target -> send_run t ~src ~target ~delay (Pbatch.singleton pkt)
  | Faults.Gateway ->
    Sim.cross (sim_of_ep t src) t.sim ~delay (fun _ -> Gateway.handle t.gateway pkt)

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

(* Packet [i] goes on at the nominal delay: toward a server it joins
   the open run, toward the gateway it crosses alone. *)
let on_time t ~src ~dst ~delay batch i run =
  match dst with
  | Faults.Server target -> join_run t ~src batch i run ~target ~delay
  | Faults.Gateway ->
    send_one t ~src ~dst ~delay (Pbatch.get batch i);
    run

(* Packet [i] of [batch] crosses [src -> dst] after [delay], the one
   body of every underlay hop; [run] is the burst's open run, and the
   result the run left open.  A gateway-bound packet flushes the run
   first: the gateway takes packets one at a time.  Then the plane's
   verdict: a drop leaves the run, a delayed packet flushes it and
   crosses alone, a duplicate goes on and its twin crosses alone — so
   arrival order and times match a packet-at-a-time burst.  The twin is
   a fresh copy (downstream mutates packets in place) and leaves the
   trace, which would otherwise count every later stage twice. *)
let hop t ~src ~dst ~delay batch i run =
  let pkt = Pbatch.get batch i in
  let run =
    match dst with
    | Faults.Gateway ->
      flush_run t ~src batch i run;
      No_run
    | Faults.Server _ -> run
  in
  match verdict t ~src ~dst with
  | Faults.Drop ->
    trace_fault_drop t ~src ~dst pkt;
    count_lost t Fault_injected;
    detach batch i run
  | Faults.Pass ->
    trace_wire t ~src ~dst ~dur:delay pkt;
    on_time t ~src ~dst ~delay batch i run
  | Faults.Delay extra ->
    flush_run t ~src batch i run;
    trace_wire t ~src ~dst ~dur:(delay +. extra) pkt;
    send_one t ~src ~dst ~delay:(delay +. extra) pkt;
    No_run
  | Faults.Duplicate extra ->
    let twin = Packet.copy pkt in
    twin.Packet.trace_id <- 0;
    trace_wire t ~src ~dst ~dur:delay pkt;
    let run = on_time t ~src ~dst ~delay batch i run in
    send_one t ~src ~dst ~delay:(delay +. extra) twin;
    run

(* Ship the run a burst left open; a run that spans the whole burst
   crosses as the burst itself.  Owns [batch]. *)
let close_burst t ~src batch = function
  | Prefix (target, delay) -> send_run t ~src ~target ~delay batch
  | (No_run | Run _) as run ->
    flush_run t ~src batch (Pbatch.length batch) run;
    Pbatch.recycle batch

let create ~sim ~topology =
  let n = Topology.server_count topology in
  let t =
    {
      sim;
      sims = Array.make n sim;
      endpoints = Array.init n (fun sid -> Faults.Server sid);
      topology;
      gateway = Gateway.create ();
      switches = Array.make n None;
      vms = Array.make n None;
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
  (* A gateway forward is a burst of one. *)
  Gateway.set_forward t.gateway (fun ~dst pkt ->
      match Topology.server_of_ip topology dst with
      | None -> count_lost t No_such_server
      | Some target ->
        let batch = Pbatch.singleton pkt in
        let delay = Topology.latency_to_gateway topology target in
        close_burst t ~src:Faults.Gateway batch
          (hop t ~src:Faults.Gateway ~dst:t.endpoints.(target) ~delay batch 0 No_run));
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

(* Server egress: one pass in arrival order carves the burst into
   maximal consecutive runs bound for the same server under the same
   delay; each run crosses the wire as one scheduled delivery into
   [Vswitch.from_net_batch].  The impairment plane is read per packet,
   in order, so fault RNG draws line up exactly with a packet-at-a-time
   burst.  Owns [batch]. *)
let deliver_batch_to_server t ~src batch =
  let ep = t.endpoints.(src) in
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
      if Ipv4.equal outer_dst (Topology.gateway_ip t.topology) then
        run :=
          hop t ~src:ep ~dst:Faults.Gateway
            ~delay:(Topology.latency_to_gateway t.topology src)
            batch i !run
      else
        match Topology.server_of_ip t.topology outer_dst with
        | None ->
          run := detach batch i !run;
          count_lost t No_such_server
        | Some target ->
          run :=
            hop t ~src:ep ~dst:t.endpoints.(target)
              ~delay:(Topology.latency t.topology src target)
              batch i !run)
  done;
  close_burst t ~src:ep batch !run

let deliver_to_server t ~src pkt = deliver_batch_to_server t ~src (Pbatch.singleton pkt)

(* Liveness probe (§4.4), as a wire round-trip through the monitor's
   vantage point (the gateway side): request leg, vSwitch check at the
   target, reply leg.  Each leg is subject to the impairment plane, so a
   partition or lossy link produces genuinely missed probes. *)
let ping t ~dst ~reply =
  let leg ~src ~dst =
    match verdict t ~src ~dst with
    | Faults.Drop -> None
    | Faults.Pass -> Some 0.0
    | Faults.Delay extra -> Some extra
    (* A duplicated probe is still one probe; ignore the twin. *)
    | Faults.Duplicate _ -> Some 0.0
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
          match vm_of t sid vid with
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

let attach_vm t sid vid vm =
  let vms =
    match t.vms.(sid) with
    | Some vms -> vms
    | None ->
      let vms = Vnic.Id_table.create 4 in
      t.vms.(sid) <- Some vms;
      vms
  in
  Vnic.Id_table.replace vms vid vm

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
