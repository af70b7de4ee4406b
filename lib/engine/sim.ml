(* A handle packs an event's sequence number over its pool slot.  The
   event is live while [live.(slot)] still holds that (masked) sequence
   number: firing or cancelling it stores [dead], and a later event in
   the slot stores its own, so a stale handle matches nothing. *)
type handle = int

let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let seq_mask = (1 lsl (62 - slot_bits)) - 1
let dead = -1

(* The clock sits in an all-float record, so advancing it stores an
   unboxed float: no allocation and no write barrier per event.  Beside
   it sits the wheel's head, the next slot sweep or [infinity] when no
   timer is pending, so an engine turn reads both heads from memory. *)
type clock = { mutable now : float; mutable wheel_at : float }

(* The event queue is a binary min-heap over [(time, seq)] kept in three
   parallel arrays: heap position [i] holds the event [(times.(i),
   seqs.(i))], whose action and handle live in pool slot [slots.(i)].
   Sifts move a hole and copy floats and ints, never a pointer, so they
   run no write barrier.  Positions [size, fresh) of [slots] hold the
   free slots: popping an event parks its slot just past the heap and
   the next push takes it back, so a warm simulation hands out no new
   slot, and an event allocates nothing but its action. *)
type t = {
  clk : clock;
  mutable seq : int;
  mutable executed : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;  (* events queued *)
  mutable fresh : int;  (* slots ever handed out *)
  mutable reused : int;
  mutable actions : (t -> unit) array;  (* by slot *)
  mutable live : int array;  (* by slot: the queued event's seq, or [dead] *)
  timer_tick : float;
  timer_slots : int;
  mutable wheel : Timer_wheel.t option; (* created lazily *)
  (* Timer loops by loop id, the payload of the loop's wheel node: its
     body and its node's handle.  A loop that ends or is cancelled gives
     its id back, and its body slot lets go of the closure.  Free ids
     are chained through [nodes], a free id [i] holding [-2 - next]
     (so [-1] ends the chain, and no free entry is a handle). *)
  mutable bodies : (t -> float option) array;
  mutable nodes : int array;
  mutable free_loop : int; (* head of the free-id chain, or -1 *)
  mutable loops : int; (* loop ids ever handed out *)
  mutable shard : shard option;
}

and shard = { cluster : cluster; shard_id : int; mutable msg_seq : int }

and cluster = {
  members : t array;
  lookahead : float;
  mail : msg list ref array; (* per destination shard, newest first *)
  mutable delivered : int;
}

and msg = { at_time : float; src : int; mseq : int; act : t -> unit }

(* A timer loop: the wheel node is the loop's for its whole life, and
   each [Some delay] from its body re-links it in place. *)
and timer = { owner : t; id : int; node : Timer_wheel.timer; mutable cancelled : bool }

let no_action : t -> unit = fun _ -> ()
let no_body : t -> float option = fun _ -> None

let create ?(capacity = 256) ?(timer_tick = 1e-3) ?(timer_slots = 1024) () =
  if timer_tick <= 0.0 then invalid_arg "Sim.create: timer_tick must be positive";
  if timer_slots <= 0 then invalid_arg "Sim.create: timer_slots must be positive";
  let cap = max 1 capacity in
  {
    clk = { now = 0.0; wheel_at = infinity };
    seq = 0;
    executed = 0;
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    size = 0;
    fresh = 0;
    reused = 0;
    actions = Array.make cap no_action;
    live = Array.make cap dead;
    timer_tick;
    timer_slots;
    wheel = None;
    bodies = [||];
    nodes = [||];
    free_loop = -1;
    loops = 0;
    shard = None;
  }

let now t = t.clk.now

let grow t =
  let cap = Array.length t.times in
  if 2 * cap > slot_mask + 1 then failwith "Sim: event queue full";
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.actions <- extend t.actions no_action;
  t.live <- extend t.live dead

let pool_stats t = (t.reused, t.fresh)

let enqueue t ~time action =
  let n = t.size in
  let slot =
    if n < t.fresh then begin
      t.reused <- t.reused + 1;
      t.slots.(n)
    end
    else begin
      if n = Array.length t.times then grow t;
      t.fresh <- n + 1;
      n
    end
  in
  t.actions.(slot) <- action;
  t.seq <- t.seq + 1;
  let seq = t.seq land seq_mask in
  t.live.(slot) <- seq;
  (* Sift a hole up from position [n].  The new event carries the
     largest sequence number yet, so it rises only past strictly later
     times. *)
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref n in
  while !i > 0 && time < times.((!i - 1) lsr 1) do
    let p = (!i - 1) lsr 1 in
    times.(!i) <- times.(p);
    seqs.(!i) <- seqs.(p);
    slots.(!i) <- slots.(p);
    i := p
  done;
  times.(!i) <- time;
  seqs.(!i) <- t.seq;
  slots.(!i) <- slot;
  t.size <- n + 1;
  (seq lsl slot_bits) lor slot

(* Drop the root: sift the last event down from a hole at the root, then
   park the root's slot at the position the heap gave up. *)
let remove_min t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let lt = times.(n) and ls = seqs.(n) and lslot = slots.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < lt || (ct = lt && seqs.(c) < ls) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    slots.(!i) <- lslot
  end;
  slots.(n) <- top

let at t ~time action =
  let time = if time < t.clk.now then t.clk.now else time in
  enqueue t ~time action

let schedule t ~delay action =
  let delay = if delay < 0.0 then 0.0 else delay in
  at t ~time:(t.clk.now +. delay) action

let[@inline] holds t h =
  let slot = h land slot_mask in
  slot < Array.length t.live && t.live.(slot) = h lsr slot_bits

let cancel t h = if holds t h then t.live.(h land slot_mask) <- dead

let cancelled t h = not (holds t h)

let every t ~period ?(jitter = fun () -> 0.0) f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  (* One tick closure serves every firing: each period re-arms by
     re-enqueueing it into a recycled queue slot. *)
  let rec tick sim =
    if f sim then begin
      let delay = period +. jitter () in
      let delay = if delay < 0.0 then 0.0 else delay in
      ignore (enqueue sim ~time:(sim.clk.now +. delay) tick : handle)
    end
  in
  ignore (enqueue t ~time:t.clk.now tick : handle)

(* ---- wheel-backed timers ------------------------------------------- *)

(* Every change to the wheel's pending set goes through [timeout],
   [cancel_timer] or a slot sweep, and each ends here. *)
let refresh_wheel t =
  t.clk.wheel_at <-
    (match t.wheel with
    | Some w when Timer_wheel.pending w > 0 -> Timer_wheel.next_sweep_at w
    | _ -> infinity)

let get_wheel t =
  match t.wheel with
  | Some w -> w
  | None ->
    let w = Timer_wheel.create ~tick:t.timer_tick ~slots:t.timer_slots in
    (* Skip the cursor up to the current clock while the wheel is still
       empty, so the first real sweep doesn't walk every slot since 0. *)
    if t.clk.now > 0.0 then
      ignore (Timer_wheel.advance w ~now:t.clk.now (fun _ -> ()) : int);
    t.wheel <- Some w;
    w

let new_loop t body =
  let id =
    if t.free_loop >= 0 then begin
      let id = t.free_loop in
      t.free_loop <- -2 - t.nodes.(id);
      id
    end
    else begin
      let id = t.loops in
      if id = Array.length t.bodies then begin
        let n = max 16 (id + (id / 2)) in
        let extend a fill =
          let b = Array.make n fill in
          Array.blit a 0 b 0 id;
          b
        in
        t.bodies <- extend t.bodies no_body;
        t.nodes <- extend t.nodes Timer_wheel.none
      end;
      t.loops <- id + 1;
      id
    end
  in
  t.bodies.(id) <- body;
  id

let end_loop t id =
  t.bodies.(id) <- no_body;
  t.nodes.(id) <- -2 - t.free_loop;
  t.free_loop <- id

let timeout t ~delay fire =
  let delay = if delay < 0.0 then 0.0 else delay in
  let w = get_wheel t in
  let id = new_loop t fire in
  let node = Timer_wheel.add w ~now:t.clk.now ~deadline:(t.clk.now +. delay) id in
  t.nodes.(id) <- node;
  refresh_wheel t;
  { owner = t; id; node; cancelled = false }

(* A loop cancelled while armed ends now; one cancelled from inside its
   own body ends when the body returns.  Once a loop has ended its node
   handle is stale, so the cancel reaches no later loop with its id. *)
let cancel_timer l =
  if not l.cancelled then begin
    l.cancelled <- true;
    match l.owner.wheel with
    | Some w ->
      let armed = Timer_wheel.armed w l.node in
      Timer_wheel.cancel w l.node;
      if armed then end_loop l.owner l.id;
      refresh_wheel l.owner
    | None -> ()
  end

let timer_cancelled l = l.cancelled

(* ---- the engine turn ------------------------------------------------ *)

let[@inline] heap_next t = if t.size = 0 then infinity else t.times.(0)

let next_event_time t = Float.min (heap_next t) t.clk.wheel_at

let run_heap_event t =
  let slot = t.slots.(0) in
  t.clk.now <- t.times.(0);
  let alive = t.live.(slot) = t.seqs.(0) land seq_mask and act = t.actions.(slot) in
  (* Clear the slot so the pool never keeps dead captures alive. *)
  t.live.(slot) <- dead;
  t.actions.(slot) <- no_action;
  remove_min t;
  if alive then begin
    t.executed <- t.executed + 1;
    act t
  end

let run_wheel_slot t =
  match t.wheel with
  | None -> ()
  | Some w ->
    let boundary = Timer_wheel.next_sweep_at w in
    let now' = if boundary > t.clk.now then boundary else t.clk.now in
    t.clk.now <- now';
    ignore
      (Timer_wheel.advance w ~now:now' (fun id ->
           t.executed <- t.executed + 1;
           let node = t.nodes.(id) in
           (match t.bodies.(id) t with
           | None -> ()
           | Some delay ->
             (* A cancel from inside the body left the node cancelled,
                and [rearm] keeps it so. *)
             let delay = if delay < 0.0 then 0.0 else delay in
             ignore (Timer_wheel.rearm w node ~now:now' ~deadline:(now' +. delay) : int));
           if not (Timer_wheel.armed w node) then end_loop t id)
        : int);
    refresh_wheel t

(* One engine turn: either sweep the next due wheel slot or pop one heap
   event, whichever comes first (wheel wins ties so coarse timers never
   lag an equal-time event). *)
let step t =
  let hn = heap_next t and wn = t.clk.wheel_at in
  if wn <= hn then
    if wn = infinity then false
    else begin
      run_wheel_slot t;
      true
    end
  else begin
    run_heap_event t;
    true
  end

(* Core loop shared by [run] and the sharded window executor: execute
   turns while the next event time is [< limit_ex] and [<= limit_in]
   and fewer than [budget] events have run, reading the heap and wheel
   heads once per turn.  The budget may overshoot by at most the
   contents of one wheel slot. *)
let exec t ~limit_ex ~limit_in ~budget =
  let clk = t.clk in
  let running = ref true in
  while !running && t.executed < budget do
    let hn = heap_next t and wn = clk.wheel_at in
    if wn <= hn then
      if wn < limit_ex && wn <= limit_in then run_wheel_slot t else running := false
    else if hn < limit_ex && hn <= limit_in then run_heap_event t
    else running := false
  done

let run ?until ?(max_events = max_int) t =
  let limit_in = match until with None -> infinity | Some u -> u in
  exec t ~limit_ex:infinity ~limit_in ~budget:max_events;
  match until with
  | Some stop when t.clk.now < stop && next_event_time t > stop -> t.clk.now <- stop
  | Some _ | None -> ()

let pending t =
  t.size + (match t.wheel with Some w -> Timer_wheel.pending w | None -> 0)

let events_executed t = t.executed

(* ---- sharded conservative-sync cluster ------------------------------ *)

module Sharded = struct
  type nonrec cluster = cluster

  let create ?capacity ?timer_tick ?timer_slots ~shards ~lookahead () =
    if shards <= 0 then invalid_arg "Sim.Sharded.create: shards must be positive";
    if lookahead <= 0.0 then
      invalid_arg "Sim.Sharded.create: lookahead must be positive";
    let members =
      Array.init shards (fun _ -> create ?capacity ?timer_tick ?timer_slots ())
    in
    let c =
      {
        members;
        lookahead;
        mail = Array.init shards (fun _ -> ref []);
        delivered = 0;
      }
    in
    Array.iteri
      (fun i m -> m.shard <- Some { cluster = c; shard_id = i; msg_seq = 0 })
      members;
    c

  let shard c i = c.members.(i)
  let shard_count c = Array.length c.members
  let lookahead c = c.lookahead
  let shard_id t = match t.shard with None -> None | Some s -> Some s.shard_id
  let messages_delivered c = c.delivered

  let send src ~dst ~delay act =
    match src.shard with
    | None -> ignore (schedule src ~delay act : handle)
    | Some sh ->
      let c = sh.cluster in
      if dst < 0 || dst >= Array.length c.members then
        invalid_arg "Sim.Sharded.send: no such shard";
      if dst = sh.shard_id then ignore (schedule src ~delay act : handle)
      else begin
        if delay < c.lookahead then
          invalid_arg "Sim.Sharded.send: cross-shard delay below lookahead";
        sh.msg_seq <- sh.msg_seq + 1;
        let box = c.mail.(dst) in
        box :=
          { at_time = src.clk.now +. delay; src = sh.shard_id; mseq = sh.msg_seq; act }
          :: !box
      end

  let cmp_msg a b =
    let c = Float.compare a.at_time b.at_time in
    if c <> 0 then c
    else
      let c = Int.compare a.src b.src in
      if c <> 0 then c else Int.compare a.mseq b.mseq

  (* Drain every mailbox into its destination heap.  Messages are sorted
     by (arrival time, source shard, source sequence) so the delivery
     order — and hence the destination's tie-breaking sequence numbers —
     is independent of the order shards executed in. *)
  let deliver c =
    Array.iteri
      (fun d box ->
        match !box with
        | [] -> ()
        | msgs ->
          box := [];
          let sorted = List.sort cmp_msg msgs in
          let dst = c.members.(d) in
          List.iter
            (fun m ->
              c.delivered <- c.delivered + 1;
              ignore (at dst ~time:m.at_time m.act : handle))
            sorted)
      c.mail

  let run ?until c =
    let stop = match until with None -> infinity | Some u -> u in
    let rec loop () =
      deliver c;
      let m =
        Array.fold_left
          (fun acc s -> Float.min acc (next_event_time s))
          infinity c.members
      in
      if m = infinity || m > stop then begin
        match until with
        | Some u ->
          Array.iter (fun s -> if s.clk.now < u then s.clk.now <- u) c.members
        | None -> ()
      end
      else begin
        (* Conservative window [m, m + lookahead): any cross-shard send
           from inside the window arrives at >= m + lookahead, so every
           shard may execute the whole window without hearing from the
           others. *)
        let wend = m +. c.lookahead in
        Array.iter
          (fun s -> exec s ~limit_ex:wend ~limit_in:stop ~budget:max_int)
          c.members;
        loop ()
      end
    in
    loop ()

  let now c =
    Array.fold_left (fun acc s -> Float.min acc s.clk.now) infinity c.members

  let pending c = Array.fold_left (fun acc s -> acc + pending s) 0 c.members

  let events_executed c =
    Array.fold_left (fun acc s -> acc + s.executed) 0 c.members
end

let cross src dst ~delay act =
  if src == dst then ignore (schedule src ~delay act : handle)
  else
    match (src.shard, dst.shard) with
    | Some a, Some b when a.cluster == b.cluster ->
      Sharded.send src ~dst:b.shard_id ~delay act
    | _ -> invalid_arg "Sim.cross: simulations are not in the same cluster"
