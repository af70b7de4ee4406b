open Nezha_engine

(* The busy-time books sit in an all-float record (like [Sim]'s clock),
   so charging a job stores unboxed doubles: a long-lived card never
   points at a young box, and a minor collection has nothing of it to
   promote. *)
type load = {
  mutable busy_until : float;
  mutable busy_acc : float; (* total seconds of service completed or committed *)
  mutable last_sample_time : float;
  mutable last_sample_busy : float;
}

type t = {
  sim : Sim.t;
  params : Params.t;
  name : string;
  load : load;
  (* The queued continuations, oldest at [head], in a power-of-two
     ring.  The CPU is a FIFO server: a job completes no earlier than
     the one submitted before it, and its event has a larger sequence
     number, so completion events fire in submission order and the one
     [finish] closure pops the oldest.  A job costs its event's queue
     slot and no wrapper closure. *)
  mutable jobs : (Sim.t -> unit) array;
  mutable head : int;
  mutable queued : int;
  mutable finish : Sim.t -> unit;
  (* Trailing-window bookkeeping for [peek_utilization]: ring of recent
     (time, busy_acc) snapshots taken on submissions. *)
  mutable snap_times : float array;
  mutable snap_busy : float array;
  mutable snap_head : int;
  mutable snap_len : int;
  mutable completed : int;
  mutable dropped : int;
  mutable mem_used : int;
  mutable crashed : bool;
}

let snap_capacity = 512

let no_job : Sim.t -> unit = fun _ -> ()

let finish t sim =
  let k = t.jobs.(t.head) in
  t.jobs.(t.head) <- no_job;
  t.head <- (t.head + 1) land (Array.length t.jobs - 1);
  t.queued <- t.queued - 1;
  t.completed <- t.completed + 1;
  if not t.crashed then k sim

let create ~sim ~params ~name =
  let t =
    {
      sim;
      params;
      name;
      load = { busy_until = 0.0; busy_acc = 0.0; last_sample_time = 0.0; last_sample_busy = 0.0 };
      jobs = [||];
      head = 0;
      queued = 0;
      finish = no_job;
      snap_times = Array.make snap_capacity 0.0;
      snap_busy = Array.make snap_capacity 0.0;
      snap_head = 0;
      snap_len = 0;
      completed = 0;
      dropped = 0;
      mem_used = 0;
      crashed = false;
    }
  in
  t.finish <- finish t;
  t

let name t = t.name
let params t = t.params

let cpu_time t ~cycles = float_of_int cycles /. t.params.Params.cpu_hz

let record_snapshot t now =
  let i = (t.snap_head + t.snap_len) mod snap_capacity in
  t.snap_times.(i) <- now;
  t.snap_busy.(i) <- t.load.busy_acc;
  if t.snap_len < snap_capacity then t.snap_len <- t.snap_len + 1
  else t.snap_head <- (t.snap_head + 1) mod snap_capacity

(* Double the ring (from 8), unrolling it to start at 0. *)
let grow t =
  let n = Array.length t.jobs in
  let jobs = Array.make (max 8 (2 * n)) no_job in
  for i = 0 to t.queued - 1 do
    jobs.(i) <- t.jobs.((t.head + i) land (n - 1))
  done;
  t.jobs <- jobs;
  t.head <- 0

let submit t ~cycles k =
  if t.crashed then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else if t.queued >= t.params.Params.queue_capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let now = Sim.now t.sim and l = t.load in
    let start = if l.busy_until > now then l.busy_until else now in
    let dur = cpu_time t ~cycles in
    l.busy_until <- start +. dur;
    l.busy_acc <- l.busy_acc +. dur;
    if t.queued = Array.length t.jobs then grow t;
    t.jobs.((t.head + t.queued) land (Array.length t.jobs - 1)) <- k;
    t.queued <- t.queued + 1;
    record_snapshot t now;
    ignore (Sim.at t.sim ~time:l.busy_until t.finish : Sim.handle);
    true
  end

let queue_depth t = t.queued

(* Busy seconds actually elapsed by [now]: committed service time minus
   the part of the backlog that lies in the future. *)
let busy_elapsed t now =
  let l = t.load in
  let future = if l.busy_until > now then l.busy_until -. now else 0.0 in
  l.busy_acc -. future

let utilization_since_last_sample t =
  let now = Sim.now t.sim and l = t.load in
  let busy = busy_elapsed t now in
  let dt = now -. l.last_sample_time in
  let util = if dt <= 0.0 then 0.0 else (busy -. l.last_sample_busy) /. dt in
  l.last_sample_time <- now;
  l.last_sample_busy <- busy;
  Float.max 0.0 (Float.min 1.0 util)

let peek_utilization t ~window =
  let now = Sim.now t.sim in
  let cutoff = now -. window in
  (* Oldest snapshot at or after the cutoff. *)
  let rec probe i best =
    if i >= t.snap_len then best
    else begin
      let idx = (t.snap_head + i) mod snap_capacity in
      if t.snap_times.(idx) >= cutoff then Some idx else probe (i + 1) best
    end
  in
  match probe 0 None with
  | None ->
    (* No recent activity recorded: busy only if backlogged. *)
    if t.load.busy_until > now then 1.0 else 0.0
  | Some idx ->
    let t0 = Float.max cutoff t.snap_times.(idx) in
    let b0 = t.snap_busy.(idx) in
    let dt = now -. t0 in
    if dt <= 1e-12 then if t.load.busy_until > now then 1.0 else 0.0
    else Float.max 0.0 (Float.min 1.0 ((busy_elapsed t now -. b0) /. dt))

let total_busy_seconds t = busy_elapsed t (Sim.now t.sim)
let jobs_completed t = t.completed
let jobs_dropped t = t.dropped

let mem_capacity t = t.params.Params.mem_bytes
let mem_used t = t.mem_used

let mem_utilization t =
  if t.params.Params.mem_bytes = 0 then 1.0
  else float_of_int t.mem_used /. float_of_int t.params.Params.mem_bytes

let mem_reserve t bytes =
  if t.mem_used + bytes <= t.params.Params.mem_bytes then begin
    t.mem_used <- t.mem_used + bytes;
    true
  end
  else false

let mem_release t bytes =
  if bytes > t.mem_used then invalid_arg "Smartnic.mem_release: more than reserved";
  t.mem_used <- t.mem_used - bytes

let crash t = t.crashed <- true
let recover t = t.crashed <- false
let is_crashed t = t.crashed

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = "smartnic/" ^ t.name ^ "/" in
  (* cpu_util must stay non-consuming: the controller's report path owns
     the consuming [utilization_since_last_sample]. *)
  T.register_gauge reg ~name:(prefix ^ "cpu_util") (fun () ->
      peek_utilization t ~window:1.0);
  T.register_gauge reg ~name:(prefix ^ "queue_depth") (fun () ->
      float_of_int t.queued);
  T.register_gauge reg ~name:(prefix ^ "mem_util") (fun () -> mem_utilization t);
  T.register_counter reg ~name:(prefix ^ "mem_used_bytes") (fun () -> t.mem_used);
  T.register_counter reg ~name:(prefix ^ "jobs_completed") (fun () -> t.completed);
  T.register_counter reg ~name:(prefix ^ "jobs_dropped") (fun () -> t.dropped)
