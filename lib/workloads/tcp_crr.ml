open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric

type endpoint = { vs : Vswitch.t; vnic : Vnic.id; vm : Vm.t; ip : Ipv4.t }

(* Each connection sends one 64 B request and gets one 512 B response. *)
let request_bytes = 64
let response_bytes = 512

type conn = { t0 : float; mutable synack_at : float option; mutable done_ : bool }

type t = {
  sim : Sim.t;
  vpc : Vpc.t;
  client : endpoint;
  server : endpoint;
  dport : int;
  duration : float;
  conns : (int, conn) Hashtbl.t; (* keyed by client source port *)
  mutable offered : int;
  mutable established : int;
  mutable completed : int;
  latencies : Stats.Histogram.t;
  first_packet : Stats.Histogram.t;
  mutable on_conn_end : int -> unit; (* closed-loop replenishment hook *)
  mutable retransmissions : int;
  mutable failed : int;
}

let send endpoint pkt = Vswitch.from_vm endpoint.vs endpoint.vnic pkt

let reply endpoint pkt ~flags ~payload_len =
  let resp =
    Packet.create ~vpc:pkt.Packet.vpc
      ~flow:(Five_tuple.reverse pkt.Packet.flow)
      ~direction:Packet.Tx ~flags ~payload_len ()
  in
  send endpoint resp

(* The server side: accept, answer requests, acknowledge closes. *)
let server_app t _sim pkt =
  let f = pkt.Packet.flags in
  if f.Packet.syn && not f.Packet.ack then reply t.server pkt ~flags:Packet.syn_ack ~payload_len:0
  else if f.Packet.fin then reply t.server pkt ~flags:Packet.fin_ack ~payload_len:0
  else if pkt.Packet.payload_len > 0 then
    reply t.server pkt ~flags:Packet.ack ~payload_len:response_bytes

(* The client side: drive the handshake, request, and close. *)
let client_app t sim pkt =
  let f = pkt.Packet.flags in
  let sport = pkt.Packet.flow.Five_tuple.dst_port in
  match Hashtbl.find_opt t.conns sport with
  | None -> ()
  | Some conn ->
    if f.Packet.syn && f.Packet.ack && conn.synack_at = None then begin
      conn.synack_at <- Some (Sim.now sim);
      t.established <- t.established + 1;
      Stats.Histogram.record t.first_packet (Sim.now sim -. conn.t0);
      reply t.client pkt ~flags:Packet.ack ~payload_len:request_bytes
    end
    else if pkt.Packet.payload_len > 0 && not conn.done_ then begin
      conn.done_ <- true;
      t.completed <- t.completed + 1;
      Stats.Histogram.record t.latencies (Sim.now sim -. conn.t0);
      reply t.client pkt ~flags:Packet.fin_ack ~payload_len:0;
      Hashtbl.remove t.conns sport;
      t.on_conn_end sport
    end

let open_connection t sport =
  t.offered <- t.offered + 1;
  Hashtbl.replace t.conns sport { t0 = Sim.now t.sim; synack_at = None; done_ = false };
  let pkt =
    Packet.create ~vpc:t.vpc
      ~flow:
        (Five_tuple.make ~src:t.client.ip ~dst:t.server.ip ~src_port:sport ~dst_port:t.dport
           ~proto:Five_tuple.Tcp)
      ~direction:Packet.Tx ~flags:Packet.syn ()
  in
  send t.client pkt

let start ~sim ~rng ~vpc ~client ~server ~rate ~duration ?(dport = 80)
    ?(sport_base = 1024) () =
  if rate <= 0.0 || duration <= 0.0 then invalid_arg "Tcp_crr.start: rate and duration positive";
  let t =
    {
      sim;
      vpc;
      client;
      server;
      dport;
      duration;
      conns = Hashtbl.create 4096;
      offered = 0;
      established = 0;
      completed = 0;
      latencies = Stats.Histogram.create ();
      first_packet = Stats.Histogram.create ();
      on_conn_end = (fun _ -> ());
      retransmissions = 0;
      failed = 0;
    }
  in
  Vm.set_app server.vm (fun sim' pkt -> server_app t sim' pkt);
  Vm.set_app client.vm (fun sim' pkt -> client_app t sim' pkt);
  let t_end = Sim.now sim +. duration in
  let sport = ref (max 1024 (sport_base land 0xffff)) in
  let rec arrival sim' =
    if Sim.now sim' < t_end then begin
      sport := if !sport >= 65535 then 1024 else !sport + 1;
      open_connection t !sport;
      ignore (Sim.schedule sim' ~delay:(Rng.exponential rng ~mean:(1.0 /. rate)) arrival : Sim.handle)
    end
  in
  ignore (Sim.schedule sim ~delay:(Rng.exponential rng ~mean:(1.0 /. rate)) arrival : Sim.handle);
  t

let start_closed ~sim ~rng ~vpc ~client ~server ~concurrency ~duration ?(dport = 80)
    ?(conn_timeout = 1.0) ?(retransmit = false) () =
  if concurrency <= 0 || duration <= 0.0 then
    invalid_arg "Tcp_crr.start_closed: concurrency and duration positive";
  let t =
    {
      sim;
      vpc;
      client;
      server;
      dport;
      duration;
      conns = Hashtbl.create 4096;
      offered = 0;
      established = 0;
      completed = 0;
      latencies = Stats.Histogram.create ();
      first_packet = Stats.Histogram.create ();
      on_conn_end = (fun _ -> ());
      retransmissions = 0;
      failed = 0;
    }
  in
  Vm.set_app server.vm (fun sim' pkt -> server_app t sim' pkt);
  Vm.set_app client.vm (fun sim' pkt -> client_app t sim' pkt);
  let t_end = Sim.now sim +. duration in
  let sport = ref (1024 + Rng.int rng 1000) in
  let resend this (conn : conn) =
    t.retransmissions <- t.retransmissions + 1;
    let flow =
      Five_tuple.make ~src:t.client.ip ~dst:t.server.ip ~src_port:this ~dst_port:t.dport
        ~proto:Five_tuple.Tcp
    in
    match conn.synack_at with
    | None ->
      send t.client (Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.syn ())
    | Some _ ->
      send t.client
        (Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.ack
           ~payload_len:request_bytes ())
  in
  let rec launch sim' =
    if Sim.now sim' < t_end then begin
      sport := if !sport >= 65535 then 1024 else !sport + 1;
      let this = !sport in
      open_connection t this;
      arm_timeout sim' this 0

    end
  (* A lost packet would leak the slot forever: on timeout either
     retransmit with exponential backoff or reclaim the slot. *)
  and arm_timeout sim' this attempt =
    let delay =
      if retransmit then Float.min 8.0 (0.25 *. (2.0 ** float_of_int attempt))
      else conn_timeout
    in
    ignore
      (Sim.schedule sim' ~delay (fun sim'' ->
           match Hashtbl.find_opt t.conns this with
           | Some c when not c.done_ ->
             if retransmit && attempt < 6 then begin
               resend this c;
               arm_timeout sim'' this (attempt + 1)
             end
             else begin
               t.failed <- t.failed + 1;
               Hashtbl.remove t.conns this;
               launch sim''
             end
           | Some _ | None -> ())
        : Sim.handle)
  in
  t.on_conn_end <- (fun _ -> launch sim);
  for _ = 1 to concurrency do
    ignore (Sim.schedule sim ~delay:(Rng.float rng 0.01) launch : Sim.handle)
  done;
  t

let retransmissions t = t.retransmissions
let failed t = t.failed

let offered t = t.offered
let established t = t.established
let completed t = t.completed
let achieved_cps t = float_of_int t.completed /. t.duration
let latencies t = t.latencies
let first_packet_latencies t = t.first_packet
