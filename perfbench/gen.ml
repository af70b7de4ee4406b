(* The benchmark's own traffic generator.

   TCP_CRR mirrors [Tcp_crr]'s exchange (SYN, SYN-ACK, ACK+request,
   ACK+response, FIN-ACK, FIN-ACK) as an open loop: each client draws
   Poisson arrivals in simulated time from its own seeded stream, so a
   slow system receives the same schedule.  A connection is timed from
   its arrival (the SYN is sent at the instant it is due) to the response
   reaching the client.

   Bulk flows are long-lived TCP streams that leave the heavy VM as
   32-packet bursts through [Vswitch.from_vnic_batch], toward a client
   the CRR load does not use.

   Every packet enters the program through [tx] / [tx_batch], so the
   traced run can wrap vSwitch TX entry in a span; the VM applications
   are installed here for the same reason. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
open Nezha_workloads

type conn = { t0 : float; in_window : bool; mutable synack : bool; mutable done_ : bool }

type client = {
  ep : Tcp_crr.endpoint;
  rng : Rng.t;
  conns : (int, conn) Hashtbl.t;  (** keyed by client source port *)
  mutable sport : int;
}

type bulk = {
  b_src : Tcp_crr.endpoint;
  b_dst : Tcp_crr.endpoint;
  b_rng : Rng.t;
  flows : int;
  burst : int;
  burst_rate : float;
  mutable next_flow : int;
  mutable b_sent : int;
  mutable b_delivered : int;
}

type t = {
  sim : Sim.t;
  vpc : Vpc.t;
  server : Tcp_crr.endpoint;
  clients : client array;
  rate_per_client : float;
  bulk : bulk option;
  mutable stop_at : float;  (** no arrivals at or after this instant *)
  mutable win_start : float;
  mutable win_end : float;
  mutable offered : int;
  mutable completed : int;
  mutable stray : int;  (** replies matching no open connection *)
  mutable win_completed : int;
  latencies : Stats.Histogram.t;  (** window connections, seconds *)
  mutable sent : int;  (** tenant packets handed to vSwitch TX *)
  mutable tx : Vswitch.t -> Vnic.id -> Packet.t -> unit;
  mutable tx_batch : Vswitch.t -> Vnic.id -> Pbatch.t -> unit;
}

let dport = 80
let request_bytes = 64
let response_bytes = 512

(* Packets one completed connection sends, both directions. *)
let packets_per_conn = 6

let bulk_dport = 5001

(* About the largest TCP payload under a 1500 B underlay MTU once VXLAN
   (50 B) and the inner IP and TCP headers (40 B) are taken off. *)
let bulk_payload = 1400

let send t (ep : Tcp_crr.endpoint) pkt =
  t.sent <- t.sent + 1;
  t.tx ep.vs ep.vnic pkt

let reply t ep pkt ~flags ~payload_len =
  send t ep
    (Packet.create ~vpc:pkt.Packet.vpc ~flow:(Five_tuple.reverse pkt.Packet.flow)
       ~direction:Packet.Tx ~flags ~payload_len ())

let server_app t _sim pkt =
  let f = pkt.Packet.flags in
  if f.Packet.syn && not f.Packet.ack then reply t t.server pkt ~flags:Packet.syn_ack ~payload_len:0
  else if f.Packet.fin then reply t t.server pkt ~flags:Packet.fin_ack ~payload_len:0
  else if pkt.Packet.payload_len > 0 then
    reply t t.server pkt ~flags:Packet.ack ~payload_len:response_bytes

let client_app t c sim pkt =
  let f = pkt.Packet.flags in
  let sport = pkt.Packet.flow.Five_tuple.dst_port in
  match Hashtbl.find_opt c.conns sport with
  | None -> if not f.Packet.fin then t.stray <- t.stray + 1
  | Some conn ->
    if f.Packet.syn && f.Packet.ack && not conn.synack then begin
      conn.synack <- true;
      reply t c.ep pkt ~flags:Packet.ack ~payload_len:request_bytes
    end
    else if pkt.Packet.payload_len > 0 && not conn.done_ then begin
      conn.done_ <- true;
      t.completed <- t.completed + 1;
      if conn.in_window then begin
        t.win_completed <- t.win_completed + 1;
        Stats.Histogram.record t.latencies (Sim.now sim -. conn.t0)
      end;
      reply t c.ep pkt ~flags:Packet.fin_ack ~payload_len:0;
      Hashtbl.remove c.conns sport
    end
    else t.stray <- t.stray + 1

let open_connection t c =
  c.sport <- (if c.sport >= 65535 then 1024 else c.sport + 1);
  let now = Sim.now t.sim in
  let in_window = now >= t.win_start && now < t.win_end in
  (* Reusing a port still held by an unfinished connection drops that
     connection from the table, which the offered = completed + open
     check then reports. *)
  Hashtbl.replace c.conns c.sport { t0 = now; in_window; synack = false; done_ = false };
  t.offered <- t.offered + 1;
  send t c.ep
    (Packet.create ~vpc:t.vpc
       ~flow:
         (Five_tuple.make ~src:c.ep.Tcp_crr.ip ~dst:t.server.Tcp_crr.ip ~src_port:c.sport
            ~dst_port:dport ~proto:Five_tuple.Tcp)
       ~direction:Packet.Tx ~flags:Packet.syn ())

let send_burst t b =
  let f = b.next_flow in
  b.next_flow <- (f + 1) mod b.flows;
  let flow =
    Five_tuple.make ~src:b.b_src.Tcp_crr.ip ~dst:b.b_dst.Tcp_crr.ip ~src_port:(20000 + f)
      ~dst_port:bulk_dport ~proto:Five_tuple.Tcp
  in
  let batch = Pbatch.alloc () in
  for _ = 1 to b.burst do
    Pbatch.push batch
      (Packet.create ~vpc:t.vpc ~flow ~direction:Packet.Tx ~flags:Packet.ack
         ~payload_len:bulk_payload ())
  done;
  b.b_sent <- b.b_sent + b.burst;
  t.sent <- t.sent + b.burst;
  t.tx_batch b.b_src.Tcp_crr.vs b.b_src.Tcp_crr.vnic batch

let sink_app b _sim pkt =
  if pkt.Packet.flow.Five_tuple.dst_port = bulk_dport then b.b_delivered <- b.b_delivered + 1

(* [rate] is the total CRR arrival rate, split evenly over [clients];
   [bulk] is [(target, flows, burst, bursts_per_s)]. *)
let start ~sim ~rng ~vpc ~server ~clients ~rate ?bulk () =
  let clients =
    Array.map
      (fun ep ->
        (* Each client's arrivals come from the next split of [rng], as
           [Testbed.run_crr] draws its one client's. *)
        let crng = Rng.split rng in
        { ep; rng = crng; conns = Hashtbl.create 4096; sport = 1023 + Rng.int rng 1000 })
      clients
  in
  let bulk =
    Option.map
      (fun (dst, flows, burst, burst_rate) ->
        {
          b_src = server;
          b_dst = dst;
          b_rng = Rng.split rng;
          flows;
          burst;
          burst_rate;
          next_flow = 0;
          b_sent = 0;
          b_delivered = 0;
        })
      bulk
  in
  let t =
    {
      sim;
      vpc;
      server;
      clients;
      rate_per_client = rate /. float_of_int (Array.length clients);
      bulk;
      stop_at = infinity;
      win_start = infinity;
      win_end = infinity;
      offered = 0;
      completed = 0;
      stray = 0;
      win_completed = 0;
      latencies = Stats.Histogram.create ();
      sent = 0;
      tx = Vswitch.from_vm;
      tx_batch = Vswitch.from_vnic_batch;
    }
  in
  Vm.set_app server.Tcp_crr.vm (server_app t);
  Array.iter (fun c -> Vm.set_app c.ep.Tcp_crr.vm (client_app t c)) clients;
  let mean = 1.0 /. t.rate_per_client in
  Array.iter
    (fun c ->
      let rec arrival sim' =
        if Sim.now sim' < t.stop_at then begin
          open_connection t c;
          ignore (Sim.schedule sim' ~delay:(Rng.exponential c.rng ~mean) arrival : Sim.handle)
        end
      in
      ignore (Sim.schedule sim ~delay:(Rng.exponential c.rng ~mean) arrival : Sim.handle))
    clients;
  Option.iter
    (fun b ->
      Vm.set_app b.b_dst.Tcp_crr.vm (sink_app b);
      let mean = 1.0 /. b.burst_rate in
      let rec burst sim' =
        if Sim.now sim' < t.stop_at then begin
          send_burst t b;
          ignore (Sim.schedule sim' ~delay:(Rng.exponential b.b_rng ~mean) burst : Sim.handle)
        end
      in
      ignore (Sim.schedule sim ~delay:(Rng.exponential b.b_rng ~mean) burst : Sim.handle))
    bulk;
  t

(* Re-install every application handler behind [wrap] (the traced run's
   span). *)
let wrap_apps t wrap =
  Vm.set_app t.server.Tcp_crr.vm (wrap (server_app t));
  Array.iter (fun c -> Vm.set_app c.ep.Tcp_crr.vm (wrap (client_app t c))) t.clients;
  Option.iter (fun b -> Vm.set_app b.b_dst.Tcp_crr.vm (wrap (sink_app b))) t.bulk

(* Connections still open: offered but neither completed nor failed
   yet.  After a full drain these are the failures. *)
let open_conns t = Array.fold_left (fun acc c -> acc + Hashtbl.length c.conns) 0 t.clients

let bulk_sent t = match t.bulk with Some b -> b.b_sent | None -> 0
let bulk_delivered t = match t.bulk with Some b -> b.b_delivered | None -> 0

(* Window latency percentiles in microseconds, from the same histogram
   [Tcp_crr] keeps. *)
let latency_us t =
  let p q = Stats.Histogram.percentile t.latencies q *. 1e6 in
  (p 50.0, p 99.0)
