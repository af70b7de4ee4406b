(* Each slot is an intrusive chain: a timer record is its own list node,
   so arming allocates one block and a sweep relinks survivors in place
   instead of rebuilding the bucket.  A fired node can be linked again
   ([rearm]), so a timer loop keeps one node for its whole life. *)
type 'a node =
  | Nil
  | Timer of {
      mutable state : [ `Pending | `Cancelled | `Fired ];
      due : due;
      value : 'a;
      owner : 'a t;
      mutable next : 'a node;  (* the rest of the slot, newest first *)
    }

(* The deadline sits in an all-float record (like [Sim]'s clock), so a
   re-arm stores an unboxed double instead of allocating a boxed one. *)
and due = { mutable deadline : float }

and 'a t = {
  tick : float;
  slots : int;
  wheel : 'a node array; (* per-slot chains, unordered *)
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

type 'a timer = 'a node

let none = Nil

let create ~tick ~slots =
  if tick <= 0.0 then invalid_arg "Timer_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timer_wheel.create: slots must be positive";
  { tick; slots; wheel = Array.make slots Nil; cursor_abs = 0; live = 0; stale = false }

let next_sweep_at t = float_of_int (t.cursor_abs + 1) *. t.tick

let slot_of t deadline = int_of_float (deadline /. t.tick)

let beyond_sweep t deadline = slot_of t deadline > t.cursor_abs

(* Link [timer] at the head of the slot for [deadline] (already clamped
   to [now]).  Place by absolute slot index, clamped to the cursor so a
   deadline whose natural slot has already been swept lands in the very
   next sweep instead of waiting a full revolution. *)
let link t ~deadline timer =
  let k = slot_of t deadline in
  let k = if k < t.cursor_abs then t.cursor_abs else k in
  let s = k mod t.slots in
  (match timer with Timer r -> r.next <- t.wheel.(s) | Nil -> ());
  t.wheel.(s) <- timer;
  t.live <- t.live + 1

let add t ~now ~deadline value =
  let deadline = if deadline < now then now else deadline in
  let timer = Timer { state = `Pending; due = { deadline }; value; owner = t; next = Nil } in
  link t ~deadline timer;
  timer

(* Cancellation is O(1): the timer stays in its slot and the sweep
   unlinks it lazily, but the live count drops immediately.  A fired
   timer is in no slot; marking it cancelled only stops a later
   [rearm]. *)
let cancel = function
  | Timer r -> (
    match r.state with
    | `Pending ->
      r.state <- `Cancelled;
      r.owner.live <- r.owner.live - 1;
      r.owner.stale <- true
    | `Fired -> r.state <- `Cancelled
    | `Cancelled -> ())
  | Nil -> ()

let rearm timer ~now ~deadline =
  match timer with
  | Nil -> invalid_arg "Timer_wheel.rearm"
  | Timer r -> (
    let deadline = if deadline < now then now else deadline in
    match r.state with
    | `Fired ->
      r.state <- `Pending;
      r.due.deadline <- deadline;
      link r.owner ~deadline timer;
      timer
    | `Pending ->
      cancel timer;
      add r.owner ~now ~deadline r.value
    | `Cancelled -> timer)

let cancelled = function Timer r -> r.state = `Cancelled | Nil -> false

let payload = function Timer r -> r.value | Nil -> invalid_arg "Timer_wheel.payload"

(* Fire the due timers of a chain front to back, unlink them and the
   dead ones, and return the chain of survivors.  An unlinked node drops
   its [next] before its callback runs, so a handle kept by a caller
   pins no other timer and the callback may [rearm] it. *)
let rec sweep_chain t now f fired node =
  match node with
  | Nil -> Nil
  | Timer r -> (
    let rest = r.next in
    match r.state with
    | `Cancelled | `Fired ->
      r.next <- Nil;
      sweep_chain t now f fired rest
    | `Pending when r.due.deadline <= now ->
      r.state <- `Fired;
      r.next <- Nil;
      t.live <- t.live - 1;
      incr fired;
      f r.value;
      sweep_chain t now f fired rest
    | `Pending ->
      let rest' = sweep_chain t now f fired rest in
      if rest' != rest then r.next <- rest';
      node)

let rec last_node r = match r with Timer { next = Timer _ as n; _ } -> last_node n | _ -> r

let advance t ~now f =
  let fired = ref 0 in
  (* Sweep whole slots whose time window has fully passed; within each,
     fire due timers and retain the rest (they belong to later
     revolutions). *)
  while float_of_int (t.cursor_abs + 1) *. t.tick <= now do
    if t.live = 0 then begin
      (* Nothing can fire: fast-forward the cursor to just short of
         [now] instead of sweeping every empty slot on the way.  Every
         node still linked is a cancelled one, so drop them all rather
         than let the skipped slots pin their payloads for a whole
         revolution. *)
      if t.stale then begin
        Array.fill t.wheel 0 t.slots Nil;
        t.stale <- false
      end;
      let target = int_of_float (now /. t.tick) - 1 in
      if target > t.cursor_abs then t.cursor_abs <- target
    end;
    let s = t.cursor_abs mod t.slots in
    let chain = t.wheel.(s) in
    (* Empty the slot first: a callback may add a timer that lands in the
       very slot being swept.  Such timers stay in front of the
       survivors, keeping the slot newest first. *)
    t.wheel.(s) <- Nil;
    let keep = sweep_chain t now f fired chain in
    (match t.wheel.(s) with
    | Nil -> t.wheel.(s) <- keep
    | added -> (
      match last_node added with Timer r -> r.next <- keep | Nil -> ()));
    t.cursor_abs <- t.cursor_abs + 1
  done;
  !fired

let pending t = t.live
