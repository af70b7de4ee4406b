(* Node states.  A pending or cancelled node is linked in a slot; a fired
   one is in no slot while its callback runs, and is released when the
   callback returns unless it was re-armed. *)
let pending_st = 0
let cancelled_st = 1 (* linked until a sweep drops it *)
let fired_st = 2
let fired_cancelled_st = 3

let nil = -1

(* A handle is [stamp lsl id_bits lor id]: the node's index and the
   wheel-wide serial number it was issued under.  [tag.(id)] holds
   [stamp lsl 2 lor state] for a node in use and [nil] once it is
   released, so a handle is current exactly when its stamp is there. *)
let id_bits = 30
let id_mask = (1 lsl id_bits) - 1
let stamp_mask = (1 lsl 32) - 1

type timer = int

(* Each slot is a chain of node indices through [next], newest first.
   The per-node arrays are indexed by node; free nodes are chained
   through [next] too. *)
type t = {
  tick : float;
  slots : int;
  heads : int array; (* per-slot chains, unordered *)
  mutable next : int array;
  mutable tag : int array;
  mutable payload : int array;
  mutable deadline : float array;
  mutable free : int; (* head of the free-node chain *)
  mutable fresh : int; (* nodes ever handed out *)
  mutable stamp : int;
  (* Absolute slot index since t=0; the concrete slot is
     [cursor_abs mod slots] and the window start is
     [float cursor_abs *. tick].  Deriving every boundary from the
     integer counter (rather than accumulating [+. tick]) keeps slot
     boundaries bit-identical no matter how the wheel was advanced —
     which the sharded simulator relies on for cross-shard-count
     determinism. *)
  mutable cursor_abs : int;
  mutable live : int;
  mutable stale : bool; (* a cancelled node may still be linked *)
}

let none = nil

let initial_nodes = 16

let create ~tick ~slots =
  if tick <= 0.0 then invalid_arg "Timer_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timer_wheel.create: slots must be positive";
  {
    tick;
    slots;
    heads = Array.make slots nil;
    next = Array.make initial_nodes nil;
    tag = Array.make initial_nodes nil;
    payload = Array.make initial_nodes 0;
    deadline = Array.make initial_nodes 0.0;
    free = nil;
    fresh = 0;
    stamp = 0;
    cursor_abs = 0;
    live = 0;
    stale = false;
  }

let next_sweep_at t = float_of_int (t.cursor_abs + 1) *. t.tick

let slot_of t deadline = int_of_float (deadline /. t.tick)

let beyond_sweep t deadline = slot_of t deadline > t.cursor_abs

(* The node of a current handle, else [nil]. *)
let node_of t h =
  if h < 0 then nil
  else
    let id = h land id_mask in
    if id < t.fresh && Array.unsafe_get t.tag id lsr 2 = h lsr id_bits then id else nil

let state t id = t.tag.(id) land 3
let set_state t id st = t.tag.(id) <- t.tag.(id) land lnot 3 lor st

(* Grow by half, as [Flow_table]'s pool does: a doubled pool's slack
   and the garbage of its growth outweigh the extra copies. *)
let grow t =
  let n = Array.length t.next in
  let m = n + (n / 2) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.next <- extend t.next nil;
  t.tag <- extend t.tag nil;
  t.payload <- extend t.payload 0;
  let d = Array.make m 0.0 in
  Array.blit t.deadline 0 d 0 n;
  t.deadline <- d

let alloc t =
  if t.free <> nil then begin
    let id = t.free in
    t.free <- t.next.(id);
    id
  end
  else begin
    if t.fresh = Array.length t.next then grow t;
    let id = t.fresh in
    t.fresh <- id + 1;
    id
  end

let release t id =
  t.tag.(id) <- nil;
  t.next.(id) <- t.free;
  t.free <- id

(* Link node [id] at the head of the slot for [deadline] (already
   clamped to [now]).  Place by absolute slot index, clamped to the
   cursor so a deadline whose natural slot has already been swept lands
   in the very next sweep instead of waiting a full revolution. *)
let link t ~deadline id =
  let k = slot_of t deadline in
  let k = if k < t.cursor_abs then t.cursor_abs else k in
  let s = k mod t.slots in
  set_state t id pending_st;
  t.deadline.(id) <- deadline;
  t.next.(id) <- t.heads.(s);
  t.heads.(s) <- id;
  t.live <- t.live + 1

let add t ~now ~deadline payload =
  let deadline = if deadline < now then now else deadline in
  let id = alloc t in
  t.stamp <- (t.stamp + 1) land stamp_mask;
  t.tag.(id) <- t.stamp lsl 2;
  t.payload.(id) <- payload;
  link t ~deadline id;
  (t.stamp lsl id_bits) lor id

(* Cancellation is O(1): a pending node stays in its slot and the sweep
   drops it lazily, but the live count drops immediately.  A fired node
   is in no slot; marking it cancelled only stops a [rearm] from its
   callback. *)
let cancel t h =
  let id = node_of t h in
  if id <> nil then begin
    let st = state t id in
    if st = pending_st then begin
      set_state t id cancelled_st;
      t.live <- t.live - 1;
      t.stale <- true
    end
    else if st = fired_st then set_state t id fired_cancelled_st
  end

let rearm t h ~now ~deadline =
  let id = node_of t h in
  if id = nil then h
  else begin
    let deadline = if deadline < now then now else deadline in
    let st = state t id in
    if st = fired_st then begin
      link t ~deadline id;
      h
    end
    else if st = pending_st then begin
      cancel t h;
      add t ~now ~deadline t.payload.(id)
    end
    else h
  end

let armed t h =
  let id = node_of t h in
  id <> nil && state t id = pending_st

(* Fire the due nodes of a chain front to back, drop them and the
   cancelled ones, and return the chain of survivors in their order.  A
   node leaves its chain before its callback runs, so the callback may
   re-arm it; it is released afterwards unless it was. *)
let sweep_chain t now f fired chain =
  let keep = ref nil and last = ref nil and node = ref chain in
  while !node <> nil do
    let id = !node in
    let rest = t.next.(id) in
    let st = state t id in
    if st = pending_st && t.deadline.(id) <= now then begin
      set_state t id fired_st;
      t.next.(id) <- nil;
      t.live <- t.live - 1;
      incr fired;
      f t.payload.(id);
      let st = state t id in
      if st = fired_st || st = fired_cancelled_st then release t id
    end
    else if st = pending_st then begin
      if !last = nil then keep := id else t.next.(!last) <- id;
      last := id
    end
    else release t id;
    node := rest
  done;
  if !last <> nil then t.next.(!last) <- nil;
  !keep

(* Release every node linked in any slot (all of them cancelled). *)
let drop_all t =
  for s = 0 to t.slots - 1 do
    let node = ref t.heads.(s) in
    while !node <> nil do
      let id = !node in
      node := t.next.(id);
      release t id
    done;
    t.heads.(s) <- nil
  done

let rec last_node t id = if t.next.(id) = nil then id else last_node t t.next.(id)

let advance t ~now f =
  let fired = ref 0 in
  (* Sweep whole slots whose time window has fully passed; within each,
     fire due timers and retain the rest (they belong to later
     revolutions). *)
  while float_of_int (t.cursor_abs + 1) *. t.tick <= now do
    if t.live = 0 then begin
      (* Nothing can fire: fast-forward the cursor to just short of
         [now] instead of sweeping every empty slot on the way.  Every
         node still linked is a cancelled one, so release them all. *)
      if t.stale then begin
        drop_all t;
        t.stale <- false
      end;
      let target = int_of_float (now /. t.tick) - 1 in
      if target > t.cursor_abs then t.cursor_abs <- target
    end;
    let s = t.cursor_abs mod t.slots in
    let chain = t.heads.(s) in
    (* Empty the slot first: a callback may add a timer that lands in the
       very slot being swept.  Such timers stay in front of the
       survivors, keeping the slot newest first. *)
    t.heads.(s) <- nil;
    let keep = sweep_chain t now f fired chain in
    let added = t.heads.(s) in
    if added = nil then t.heads.(s) <- keep else t.next.(last_node t added) <- keep;
    t.cursor_abs <- t.cursor_abs + 1
  done;
  !fired

let pending t = t.live
