open Nezha_engine

(* The two deadlines sit in an all-float record (like [Sim]'s clock), so
   storing one writes an unboxed double instead of allocating. *)
type deadlines = {
  mutable deadline : float; (* when the entry ages out *)
  mutable armed : float; (* what the entry's one wheel timer was armed for *)
}

type 'v entry = {
  key : Flow_key.t; (* interned at first insert *)
  mutable value : 'v;
  mutable bytes : int; (* total accounted size, overhead included *)
  mutable live : bool; (* cleared by remove, expire and clear *)
  mutable timer : 'v entry Timer_wheel.timer;
  times : deadlines;
}

type 'v t = {
  capacity : int option;
  entry_overhead : int;
  value_bytes : 'v -> int;
  default_aging : float;
  (* Both are sized at the first insert ([sized_wheel]): until then the
     index is Hashtbl's smallest and there is no wheel, so a table that
     never holds a session costs a few dozen words. *)
  mutable entries : 'v entry Flow_key.Table.t;
  mutable wheel : 'v entry Timer_wheel.t option;
  mutable used_bytes : int;
}

let create ?capacity_bytes ~entry_overhead ~value_bytes ~default_aging () =
  if default_aging <= 0.0 then invalid_arg "Flow_table.create: aging must be positive";
  {
    capacity = capacity_bytes;
    entry_overhead;
    value_bytes;
    default_aging;
    entries = Flow_key.Table.create 1;
    wheel = None;
    used_bytes = 0;
  }

(* The first insert, at [now], sizes the table with the geometry it
   would have had from creation, so iteration and expiry order do not
   depend on when it was sized.  The new wheel's cursor starts at [now],
   where [expire] calls up to [now] would have left an empty one. *)
let sized_wheel t ~now =
  match t.wheel with
  | Some w -> w
  | None ->
    t.entries <- Flow_key.Table.create 1024;
    (* Tick at 1/8 of the aging time: expiry error stays under ~12%. *)
    let w = Timer_wheel.create ~tick:(t.default_aging /. 8.0) ~slots:256 in
    ignore (Timer_wheel.advance w ~now (fun _ -> ()) : int);
    t.wheel <- Some w;
    w

let entry_size t v = t.entry_overhead + t.value_bytes v

let fits t extra =
  match t.capacity with None -> true | Some cap -> t.used_bytes + extra <= cap

let aging_of t = function Some a -> a | None -> t.default_aging

(* A fired timer is re-linked in place; a pending one is replaced. *)
let arm ~now e d =
  e.times.armed <- d;
  e.timer <- Timer_wheel.rearm e.timer ~now ~deadline:d

(* Move [e]'s deadline to [now + aging].  A later deadline than the armed
   one is only stored: the timer re-arms itself when it fires.  An
   earlier one re-arms now. *)
let set_deadline ~now ~aging e =
  let d = now +. aging in
  e.times.deadline <- d;
  if d < e.times.armed then arm ~now e d

let check_live fn e = if not e.live then invalid_arg ("Flow_table." ^ fn ^ ": dead entry")

let find_entry t key = Flow_key.Table.find_opt t.entries key
let live e = e.live
let value e = e.value

let refresh t ~now ?aging e =
  check_live "refresh" e;
  set_deadline ~now ~aging:(aging_of t aging) e

let replace t ~now ?aging e v =
  check_live "replace" e;
  let nbytes = entry_size t v in
  if fits t (nbytes - e.bytes) then begin
    t.used_bytes <- t.used_bytes + nbytes - e.bytes;
    e.value <- v;
    e.bytes <- nbytes;
    set_deadline ~now ~aging:(aging_of t aging) e;
    Admission.ok
  end
  else Admission.table_full

let insert t ~now ?aging key v =
  match Flow_key.Table.find_opt t.entries key with
  | Some e -> replace t ~now ?aging e v
  | None ->
    let nbytes = entry_size t v in
    if fits t nbytes then begin
      let d = now +. aging_of t aging in
      let e =
        {
          key;
          value = v;
          bytes = nbytes;
          live = true;
          timer = Timer_wheel.none;
          times = { deadline = d; armed = d };
        }
      in
      e.timer <- Timer_wheel.add (sized_wheel t ~now) ~now ~deadline:d e;
      Flow_key.Table.add t.entries key e;
      t.used_bytes <- t.used_bytes + nbytes;
      Admission.ok
    end
    else Admission.table_full

let find t key =
  match Flow_key.Table.find_opt t.entries key with
  | Some e -> Some e.value
  | None -> None

let touch t ~now ?aging key =
  match Flow_key.Table.find_opt t.entries key with
  | None -> false
  | Some e ->
    set_deadline ~now ~aging:(aging_of t aging) e;
    true

let update t ~now key f =
  match Flow_key.Table.find_opt t.entries key with
  | None -> false
  | Some e ->
    let v = f e.value in
    let nbytes = entry_size t v in
    t.used_bytes <- t.used_bytes + nbytes - e.bytes;
    e.value <- v;
    e.bytes <- nbytes;
    set_deadline ~now ~aging:t.default_aging e;
    true

let remove t key =
  match Flow_key.Table.find_opt t.entries key with
  | None -> false
  | Some e ->
    Timer_wheel.cancel e.timer;
    e.live <- false;
    Flow_key.Table.remove t.entries key;
    t.used_bytes <- t.used_bytes - e.bytes;
    true

(* A firing timer whose entry's deadline lies in a slot the sweep has
   not reached yet re-arms there; one whose deadline's slot is this one
   expires the entry.  Either way the entry leaves the table at the same
   [expire] call as a timer re-armed on every touch would. *)
let expire t ~now ~on_expire =
  match t.wheel with
  | None -> 0
  | Some w ->
    let fired = ref 0 in
    ignore
      (Timer_wheel.advance w ~now (fun e ->
           let d = e.times.deadline in
           if Timer_wheel.beyond_sweep w d then
             (* [~now:d]: arm exactly at [d], which may already be past. *)
             arm ~now:d e d
           else begin
             e.live <- false;
             Flow_key.Table.remove t.entries e.key;
             t.used_bytes <- t.used_bytes - e.bytes;
             incr fired;
             on_expire e.key e.value
           end)
        : int);
    !fired

let length t = Flow_key.Table.length t.entries
let memory_bytes t = t.used_bytes
let capacity_bytes t = t.capacity
let pending_timers t = match t.wheel with Some w -> Timer_wheel.pending w | None -> 0

let iter t f = Flow_key.Table.iter (fun k e -> f k e.value) t.entries

let clear t =
  Flow_key.Table.iter
    (fun _ e ->
      Timer_wheel.cancel e.timer;
      e.live <- false)
    t.entries;
  Flow_key.Table.reset t.entries;
  t.used_bytes <- 0
