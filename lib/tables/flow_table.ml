open Nezha_engine
open Nezha_net

(* The two deadlines sit in an all-float record (like [Sim]'s clock), so
   storing one writes an unboxed double instead of allocating. *)
type deadlines = {
  mutable deadline : float; (* when the entry ages out *)
  mutable armed : float; (* what the entry's one wheel timer was armed for *)
}

(* A binding is one block; [Nil] fills the index's empty slots (as in
   [Timer_wheel]'s node), so a vacated slot lets go of its dead entry. *)
type 'v entry =
  | Nil
  | Entry of {
      key : Flow_key.t; (* interned at first insert *)
      mutable value : 'v;
      mutable bytes : int; (* total accounted size, overhead included *)
      mutable live : bool; (* cleared by remove, expire and clear *)
      mutable timer : 'v entry Timer_wheel.timer;
      times : deadlines;
    }

(* The index: open addressing with linear probing over two parallel
   arrays of a power-of-two length.  [hashes.(i)] is the full hash of
   the key bound in [slots.(i)], or [empty]; a key is compared only
   where its hash matches.  At most 3/4 of the slots are used, and a
   removal shifts the rest of its probe run back instead of leaving a
   tombstone. *)
type 'v t = {
  capacity : int option;
  entry_overhead : int;
  value_bytes : 'v -> int;
  default_aging : float;
  (* The index and the wheel are sized at the first insert
     ([sized_wheel]): until then both arrays are empty and there is no
     wheel, so a table that never holds a session costs a few dozen
     words. *)
  mutable hashes : int array;
  mutable slots : 'v entry array;
  mutable count : int;
  mutable wheel : 'v entry Timer_wheel.t option;
  mutable used_bytes : int;
}

let empty = -1
let initial_slots = 512

(* The key's fields packed into exact words — vpc (24 bits), proto (2)
   and both ports (32) in one, each address in its own — folded and
   finished so that the low bits, which pick the slot, depend on every
   field.  Non-negative, so never [empty]; allocation-free. *)
let proto_bits : Five_tuple.proto -> int = function Tcp -> 0 | Udp -> 1 | Icmp -> 2
let addr_word a = Int32.to_int (Ipv4.to_int32 a) land 0xffff_ffff
let fold h w = (h lxor w) * 0x100000001b3

let hash (k : Flow_key.t) =
  let f = k.flow in
  let w =
    (Vpc.to_int k.vpc lsl 34) lor (proto_bits f.proto lsl 32) lor (f.src_port lsl 16) lor f.dst_port
  in
  let z = fold (fold (fold 0x3bf29ce484222325 w) (addr_word f.src)) (addr_word f.dst) in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x27BB2EE687B0B0FD in
  (z lxor (z lsr 31)) land max_int

let same_key (a : Flow_key.t) (b : Flow_key.t) =
  a == b
  ||
  let fa = a.flow and fb = b.flow in
  fa.src_port = fb.src_port && fa.dst_port = fb.dst_port && fa.proto = fb.proto
  && Vpc.equal a.vpc b.vpc && Ipv4.equal fa.src fb.src && Ipv4.equal fa.dst fb.dst

(* The slot of [key] (hash [h]) in a probe run starting at [i], or -1.
   Top-level and fully applied, so a probe allocates nothing. *)
let rec probe hashes slots mask h key i =
  let s = Array.unsafe_get hashes i in
  if s = h && (match Array.unsafe_get slots i with Entry r -> same_key r.key key | Nil -> false)
  then i
  else if s = empty then -1
  else probe hashes slots mask h key ((i + 1) land mask)

let find_slot t h key =
  if t.count = 0 then -1
  else begin
    let mask = Array.length t.hashes - 1 in
    probe t.hashes t.slots mask h key (h land mask)
  end

(* The slot of a bound entry, found by identity. *)
let rec slot_of slots mask e i =
  if Array.unsafe_get slots i == e then i else slot_of slots mask e ((i + 1) land mask)

let rec free_slot hashes mask i =
  if Array.unsafe_get hashes i = empty then i else free_slot hashes mask ((i + 1) land mask)

let place hashes slots h e =
  let i = free_slot hashes (Array.length hashes - 1) (h land (Array.length hashes - 1)) in
  hashes.(i) <- h;
  slots.(i) <- e

let alloc_index t n =
  t.hashes <- Array.make n empty;
  t.slots <- Array.make n Nil

(* Double the index, re-placing every binding in slot order by its
   stored hash. *)
let grow t =
  let hashes = t.hashes and slots = t.slots in
  alloc_index t (2 * Array.length hashes);
  Array.iteri (fun i h -> if h <> empty then place t.hashes t.slots h slots.(i)) hashes

let add t h e =
  if 4 * (t.count + 1) > 3 * Array.length t.hashes then grow t;
  place t.hashes t.slots h e;
  t.count <- t.count + 1

(* Empty slot [i] and shift the rest of its probe run back: an entry
   moves into the hole unless its home slot lies strictly after the
   hole, where a probe for it would no longer pass the hole. *)
let rec shift_back hashes slots mask i j =
  let j = (j + 1) land mask in
  let h = Array.unsafe_get hashes j in
  if h = empty then begin
    hashes.(i) <- empty;
    slots.(i) <- Nil
  end
  else if (j - h) land mask >= (j - i) land mask then begin
    hashes.(i) <- h;
    slots.(i) <- slots.(j);
    shift_back hashes slots mask j j
  end
  else shift_back hashes slots mask i j

let delete_slot t i =
  shift_back t.hashes t.slots (Array.length t.hashes - 1) i i;
  t.count <- t.count - 1

let create ?capacity_bytes ~entry_overhead ~value_bytes ~default_aging () =
  if default_aging <= 0.0 then invalid_arg "Flow_table.create: aging must be positive";
  {
    capacity = capacity_bytes;
    entry_overhead;
    value_bytes;
    default_aging;
    hashes = [||];
    slots = [||];
    count = 0;
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
    alloc_index t initial_slots;
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
  match e with
  | Entry r ->
    r.times.armed <- d;
    r.timer <- Timer_wheel.rearm r.timer ~now ~deadline:d
  | Nil -> ()

(* Move [e]'s deadline to [now + aging].  A later deadline than the armed
   one is only stored: the timer re-arms itself when it fires.  An
   earlier one re-arms now. *)
let set_deadline ~now ~aging e =
  match e with
  | Entry r ->
    let d = now +. aging in
    r.times.deadline <- d;
    if d < r.times.armed then arm ~now e d
  | Nil -> ()

let check_live fn = function
  | Entry { live = true; _ } -> ()
  | Entry _ | Nil -> invalid_arg ("Flow_table." ^ fn ^ ": dead entry")

let lookup t key =
  let h = hash key in
  let i = find_slot t h key in
  if i < 0 then Nil else t.slots.(i)

let find_entry t key = match lookup t key with Nil -> None | e -> Some e
let live = function Entry r -> r.live | Nil -> false
let value = function Entry r -> r.value | Nil -> invalid_arg "Flow_table.value: no entry"

let refresh t ~now ?aging e =
  check_live "refresh" e;
  set_deadline ~now ~aging:(aging_of t aging) e

let replace t ~now ?aging e v =
  check_live "replace" e;
  match e with
  | Nil -> Admission.table_full
  | Entry r ->
    let nbytes = entry_size t v in
    if fits t (nbytes - r.bytes) then begin
      t.used_bytes <- t.used_bytes + nbytes - r.bytes;
      r.value <- v;
      r.bytes <- nbytes;
      set_deadline ~now ~aging:(aging_of t aging) e;
      Admission.ok
    end
    else Admission.table_full

let insert t ~now ?aging key v =
  let h = hash key in
  let i = find_slot t h key in
  if i >= 0 then replace t ~now ?aging t.slots.(i) v
  else begin
    let nbytes = entry_size t v in
    if fits t nbytes then begin
      let d = now +. aging_of t aging in
      let e =
        Entry
          {
            key;
            value = v;
            bytes = nbytes;
            live = true;
            timer = Timer_wheel.none;
            times = { deadline = d; armed = d };
          }
      in
      let w = sized_wheel t ~now in
      (match e with Entry r -> r.timer <- Timer_wheel.add w ~now ~deadline:d e | Nil -> ());
      add t h e;
      t.used_bytes <- t.used_bytes + nbytes;
      Admission.ok
    end
    else Admission.table_full
  end

let find t key = match lookup t key with Entry r -> Some r.value | Nil -> None

let touch t ~now ?aging key =
  match lookup t key with
  | Nil -> false
  | e ->
    set_deadline ~now ~aging:(aging_of t aging) e;
    true

let update t ~now key f =
  match lookup t key with
  | Nil -> false
  | Entry r as e ->
    let v = f r.value in
    let nbytes = entry_size t v in
    t.used_bytes <- t.used_bytes + nbytes - r.bytes;
    r.value <- v;
    r.bytes <- nbytes;
    set_deadline ~now ~aging:t.default_aging e;
    true

let remove t key =
  let i = find_slot t (hash key) key in
  if i < 0 then false
  else begin
    (match t.slots.(i) with
    | Entry r ->
      Timer_wheel.cancel r.timer;
      r.live <- false;
      t.used_bytes <- t.used_bytes - r.bytes
    | Nil -> ());
    delete_slot t i;
    true
  end

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
      (Timer_wheel.advance w ~now (function
         | Nil -> ()
         | Entry r as e ->
           let d = r.times.deadline in
           if Timer_wheel.beyond_sweep w d then
             (* [~now:d]: arm exactly at [d], which may already be past. *)
             arm ~now:d e d
           else begin
             r.live <- false;
             let mask = Array.length t.hashes - 1 in
             delete_slot t (slot_of t.slots mask e (hash r.key land mask));
             t.used_bytes <- t.used_bytes - r.bytes;
             incr fired;
             on_expire r.key r.value
           end)
        : int);
    !fired

let length t = t.count
let memory_bytes t = t.used_bytes
let capacity_bytes t = t.capacity
let pending_timers t = match t.wheel with Some w -> Timer_wheel.pending w | None -> 0

let iter t f = Array.iter (function Entry r -> f r.key r.value | Nil -> ()) t.slots

(* Like [Hashtbl.reset]: a grown index shrinks back to its first size. *)
let clear t =
  Array.iter
    (function
      | Entry r ->
        Timer_wheel.cancel r.timer;
        r.live <- false
      | Nil -> ())
    t.slots;
  if Array.length t.hashes > initial_slots then alloc_index t initial_slots
  else begin
    Array.fill t.hashes 0 (Array.length t.hashes) empty;
    Array.fill t.slots 0 (Array.length t.slots) Nil
  end;
  t.count <- 0;
  t.used_bytes <- 0
