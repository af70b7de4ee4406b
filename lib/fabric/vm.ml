open Nezha_engine
open Nezha_net
module Trace = Nezha_telemetry.Trace

type kernel = {
  per_core_hz : float;
  contention : float;
  packet_cycles : int;
  connection_cycles : int;
  backlog : int;
}

let default_kernel =
  {
    per_core_hz = 2.5e9;
    contention = 0.085;
    packet_cycles = 8_000;
    connection_cycles = 120_000;
    backlog = 4096;
  }

(* The busy-time books sit in an all-float record, as in [Smartnic]: a
   delivery stores unboxed doubles, so a long-lived VM never points at a
   young box. *)
type load = {
  mutable busy_until : float;
  mutable busy_acc : float;
  mutable last_sample_time : float;
  mutable last_sample_busy : float;
}

type t = {
  sim : Sim.t;
  name : string;
  vcpus : int;
  kernel : kernel;
  effective_hz : float;
  load : load;
  (* The admitted packets, oldest at [head], in a power-of-two ring: the
     kernel is a FIFO server, so deliveries fire in admission order and
     the one [finish] closure pops the oldest (see [Smartnic]). *)
  mutable backlog : Packet.t array;
  mutable head : int;
  mutable queued : int;
  mutable finish : Sim.t -> unit;
  mutable app : Sim.t -> Packet.t -> unit;
  mutable delivered : int;
  mutable dropped : int;
  mutable accepted : int;
  mutable tracer : Trace.t option;
}

let saturating_cores ~vcpus ~contention =
  float_of_int vcpus /. (1.0 +. (contention *. float_of_int (vcpus - 1)))

(* What an empty ring cell holds: built by hand, so it takes no uid. *)
let no_packet =
  let any = Ipv4.of_int32 0l in
  {
    Packet.uid = -1;
    vpc = Vpc.make 0;
    flow = Five_tuple.make ~src:any ~dst:any ~src_port:0 ~dst_port:0 ~proto:Five_tuple.Tcp;
    direction = Packet.Rx;
    flags = Packet.no_flags;
    payload_len = 0;
    vxlan = None;
    nsh = None;
    trace_id = 0;
  }

let finish t sim =
  let pkt = t.backlog.(t.head) in
  t.backlog.(t.head) <- no_packet;
  t.head <- (t.head + 1) land (Array.length t.backlog - 1);
  t.queued <- t.queued - 1;
  t.delivered <- t.delivered + 1;
  if pkt.Packet.flags.Packet.syn then t.accepted <- t.accepted + 1;
  (match t.tracer with
  | Some tr when pkt.Packet.trace_id <> 0 ->
    Trace.end_trace tr ~id:pkt.Packet.trace_id ~now:(Sim.now sim)
  | Some _ | None -> ());
  t.app sim pkt

let create ~sim ~name ~vcpus ?(kernel = default_kernel) () =
  if vcpus <= 0 then invalid_arg "Vm.create: vcpus must be positive";
  let effective_hz =
    kernel.per_core_hz *. saturating_cores ~vcpus ~contention:kernel.contention
  in
  let t =
    {
      sim;
      name;
      vcpus;
      kernel;
      effective_hz;
      load = { busy_until = 0.0; busy_acc = 0.0; last_sample_time = 0.0; last_sample_busy = 0.0 };
      backlog = [||];
      head = 0;
      queued = 0;
      finish = (fun _ -> ());
      app = (fun _ _ -> ());
      delivered = 0;
      dropped = 0;
      accepted = 0;
      tracer = None;
    }
  in
  t.finish <- finish t;
  t

let name t = t.name
let vcpus t = t.vcpus
let effective_hz t = t.effective_hz

let max_cps t = t.effective_hz /. float_of_int t.kernel.connection_cycles

let set_app t f = t.app <- f

let set_tracer t tr = t.tracer <- tr

(* Double the ring (from 8), unrolling it to start at 0. *)
let grow t =
  let n = Array.length t.backlog in
  let backlog = Array.make (max 8 (2 * n)) no_packet in
  for i = 0 to t.queued - 1 do
    backlog.(i) <- t.backlog.((t.head + i) land (n - 1))
  done;
  t.backlog <- backlog;
  t.head <- 0

let deliver t pkt =
  if t.queued >= t.kernel.backlog then begin
    t.dropped <- t.dropped + 1;
    match t.tracer with
    | Some tr when pkt.Packet.trace_id <> 0 ->
      Trace.mark tr ~id:pkt.Packet.trace_id ~name:"vm_backlog_drop"
        ~component:("vm/" ^ t.name) ~now:(Sim.now t.sim) ()
    | Some _ | None -> ()
  end
  else begin
    let is_new_conn = pkt.Packet.flags.Packet.syn in
    let cycles =
      t.kernel.packet_cycles + if is_new_conn then t.kernel.connection_cycles else 0
    in
    let now = Sim.now t.sim and l = t.load in
    let start = if l.busy_until > now then l.busy_until else now in
    let dur = float_of_int cycles /. t.effective_hz in
    l.busy_until <- start +. dur;
    l.busy_acc <- l.busy_acc +. dur;
    if t.queued = Array.length t.backlog then grow t;
    t.backlog.((t.head + t.queued) land (Array.length t.backlog - 1)) <- pkt;
    t.queued <- t.queued + 1;
    (* The kernel stage covers queue wait + processing: arrival to app
       invocation — where the trace ends (the packet reached its VM). *)
    (match t.tracer with
    | Some tr when pkt.Packet.trace_id <> 0 ->
      Trace.add_span tr ~id:pkt.Packet.trace_id ~name:"vm_kernel"
        ~component:("vm/" ^ t.name) ~t0:now ~t1:l.busy_until ()
    | Some _ | None -> ());
    ignore (Sim.at t.sim ~time:l.busy_until t.finish : Sim.handle)
  end

let packets_delivered t = t.delivered
let packets_dropped t = t.dropped
let connections_accepted t = t.accepted

let utilization_since_last_sample t =
  let now = Sim.now t.sim and l = t.load in
  let future = if l.busy_until > now then l.busy_until -. now else 0.0 in
  let busy = l.busy_acc -. future in
  let dt = now -. l.last_sample_time in
  let u = if dt <= 0.0 then 0.0 else (busy -. l.last_sample_busy) /. dt in
  l.last_sample_time <- now;
  l.last_sample_busy <- busy;
  Float.max 0.0 (Float.min 1.0 u)
