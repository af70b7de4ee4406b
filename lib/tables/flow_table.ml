open Nezha_engine
open Nezha_net

(* A handle is [stamp lsl id_bits lor id]: the binding's id and the
   table-wide serial number it was inserted under.  [handle.(id)] holds
   the live handle of binding [id], or [dead] once it is released, so a
   handle is live exactly when it is stored there. *)
type 'v entry = int

let dead = -1
let id_bits = 30
let id_mask = (1 lsl id_bits) - 1
let stamp_mask = (1 lsl 32) - 1

(* The pool keeps a binding's fields in flat arrays indexed by its id:
   the key as three exact words, the two times in one [float array]
   ([2 id] the aging deadline, [2 id + 1] what its wheel timer was armed
   for), the rest as [int]s.  Values are held as [Obj.t] so the array is
   never a flat float array, whatever ['v] is; a free id holds [filler].
   Free ids are chained through [bytes].

   The index: open addressing with linear probing over [index], a
   power-of-two number of (full hash, id) pairs — [index.(2 i)] is the
   full hash of the key bound at slot [i], or [empty], and
   [index.(2 i + 1)] its id.  At most 3/4 of the slots are used, and a
   removal shifts the rest of its probe run back instead of leaving a
   tombstone. *)
type 'v t = {
  capacity : int option;
  entry_overhead : int;
  value_bytes : 'v -> int;
  default_aging : float;
  (* The index, the pool and the wheel are sized at the first insert
     ([sized_wheel]): until then the arrays are empty and there is no
     wheel, so a table that never holds a session costs a few dozen
     words. *)
  mutable index : int array;
  mutable count : int;
  mutable handle : int array;
  mutable key_ports : int array; (* vpc, protocol and both ports *)
  mutable key_src : int array;
  mutable key_dst : int array;
  mutable values : Obj.t array;
  mutable bytes : int array; (* total accounted size, overhead included *)
  mutable timer : Timer_wheel.timer array;
  mutable times : float array;
  mutable free : int; (* head of the free-id chain, or [dead] *)
  mutable fresh : int; (* ids handed out since the pool was sized *)
  mutable stamp : int;
  mutable wheel : Timer_wheel.t option;
  mutable used_bytes : int;
}

let empty = -1
let initial_slots = 512
let initial_ids = 64
let filler = Obj.repr 0

(* The key's fields packed into exact words — vpc (24 bits), proto (2)
   and both ports (32) in one, each address in its own — folded and
   finished so that the low bits, which pick the slot, depend on every
   field.  Non-negative, so never [empty]; allocation-free. *)
let proto_bits : Five_tuple.proto -> int = function Tcp -> 0 | Udp -> 1 | Icmp -> 2
let proto_of_bits : int -> Five_tuple.proto = function 0 -> Tcp | 1 -> Udp | _ -> Icmp
let addr_word a = Int32.to_int (Ipv4.to_int32 a) land 0xffff_ffff
let addr_of_word w = Ipv4.of_int32 (Int32.of_int w)

let ports_word (k : Flow_key.t) =
  let f = k.flow in
  (Vpc.to_int k.vpc lsl 34) lor (proto_bits f.proto lsl 32) lor (f.src_port lsl 16) lor f.dst_port

let fold h w = (h lxor w) * 0x100000001b3

let hash_words p s d =
  let z = fold (fold (fold 0x3bf29ce484222325 p) s) d in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x27BB2EE687B0B0FD in
  (z lxor (z lsr 31)) land max_int

let id_hash t id =
  hash_words (Array.unsafe_get t.key_ports id) (Array.unsafe_get t.key_src id)
    (Array.unsafe_get t.key_dst id)

(* The key bound at [id], rebuilt from its words.  It was canonical when
   inserted, so [of_packet_fields] keeps its orientation. *)
let key_of t id =
  let p = t.key_ports.(id) in
  Flow_key.of_packet_fields ~vpc:(Vpc.make (p lsr 34))
    ~flow:
      (Five_tuple.make ~src:(addr_of_word t.key_src.(id)) ~dst:(addr_of_word t.key_dst.(id))
         ~src_port:((p lsr 16) land 0xffff) ~dst_port:(p land 0xffff)
         ~proto:(proto_of_bits ((p lsr 32) land 3)))

(* The slot of the key with words [p s d] (hash [h]) in a probe run
   starting at [i], or -1.  Top-level and fully applied, so a probe
   allocates nothing. *)
let rec probe t index mask h p s d i =
  let x = Array.unsafe_get index (2 * i) in
  if
    x = h
    &&
    let id = Array.unsafe_get index ((2 * i) + 1) in
    Array.unsafe_get t.key_ports id = p
    && Array.unsafe_get t.key_src id = s
    && Array.unsafe_get t.key_dst id = d
  then i
  else if x = empty then -1
  else probe t index mask h p s d ((i + 1) land mask)

let slots t = Array.length t.index / 2

let find_slot t h p s d =
  if t.count = 0 then -1
  else begin
    let mask = slots t - 1 in
    probe t t.index mask h p s d (h land mask)
  end

(* The slot of a bound id, found from its home slot. *)
let rec slot_of index mask id i =
  if Array.unsafe_get index ((2 * i) + 1) = id then i else slot_of index mask id ((i + 1) land mask)

let rec free_slot index mask i =
  if Array.unsafe_get index (2 * i) = empty then i else free_slot index mask ((i + 1) land mask)

let place index h id =
  let mask = (Array.length index / 2) - 1 in
  let i = free_slot index mask (h land mask) in
  index.(2 * i) <- h;
  index.((2 * i) + 1) <- id

let alloc_index t n = t.index <- Array.make (2 * n) empty

(* Double the index, re-placing every binding in slot order by its
   stored hash. *)
let grow_index t =
  let old = t.index in
  alloc_index t (2 * slots t);
  for i = 0 to (Array.length old / 2) - 1 do
    let h = old.(2 * i) in
    if h <> empty then place t.index h old.((2 * i) + 1)
  done

let add_index t h id =
  if 4 * (t.count + 1) > 3 * slots t then grow_index t;
  place t.index h id;
  t.count <- t.count + 1

(* Empty slot [i] and shift the rest of its probe run back: a binding
   moves into the hole unless its home slot lies strictly after the
   hole, where a probe for it would no longer pass the hole. *)
let rec shift_back index mask i j =
  let j = (j + 1) land mask in
  let h = Array.unsafe_get index (2 * j) in
  if h = empty then begin
    index.(2 * i) <- empty;
    index.((2 * i) + 1) <- empty
  end
  else if (j - h) land mask >= (j - i) land mask then begin
    index.(2 * i) <- h;
    index.((2 * i) + 1) <- index.((2 * j) + 1);
    shift_back index mask j j
  end
  else shift_back index mask i j

let delete_slot t i =
  shift_back t.index (slots t - 1) i i;
  t.count <- t.count - 1

(* (Re)allocate the pool with room for [n] ids, none handed out. *)
let alloc_pool t n =
  t.handle <- Array.make n dead;
  t.key_ports <- Array.make n 0;
  t.key_src <- Array.make n 0;
  t.key_dst <- Array.make n 0;
  t.values <- Array.make n filler;
  t.bytes <- Array.make n 0;
  t.timer <- Array.make n Timer_wheel.none;
  t.times <- Array.make (2 * n) 0.0;
  t.free <- dead;
  t.fresh <- 0

(* Pools grow by half, not double: the slack of a large pool, and the
   garbage its growth leaves, cost more than the extra copies. *)
let grow_pool t =
  let n = Array.length t.handle in
  let m = n + (n / 2) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.handle <- extend t.handle dead;
  t.key_ports <- extend t.key_ports 0;
  t.key_src <- extend t.key_src 0;
  t.key_dst <- extend t.key_dst 0;
  t.values <- extend t.values filler;
  t.bytes <- extend t.bytes 0;
  t.timer <- extend t.timer Timer_wheel.none;
  let times = Array.make (2 * m) 0.0 in
  Array.blit t.times 0 times 0 (2 * n);
  t.times <- times

let new_id t =
  let id =
    if t.free <> dead then begin
      let id = t.free in
      t.free <- t.bytes.(id);
      id
    end
    else begin
      if t.fresh = Array.length t.handle then grow_pool t;
      let id = t.fresh in
      t.fresh <- id + 1;
      id
    end
  in
  t.stamp <- (t.stamp + 1) land stamp_mask;
  t.handle.(id) <- (t.stamp lsl id_bits) lor id;
  id

(* Kill [id]'s handle and let go of its value. *)
let release t id =
  t.handle.(id) <- dead;
  t.values.(id) <- filler;
  t.bytes.(id) <- t.free;
  t.free <- id

let create ?capacity_bytes ~entry_overhead ~value_bytes ~default_aging () =
  if default_aging <= 0.0 then invalid_arg "Flow_table.create: aging must be positive";
  {
    capacity = capacity_bytes;
    entry_overhead;
    value_bytes;
    default_aging;
    index = [||];
    count = 0;
    handle = [||];
    key_ports = [||];
    key_src = [||];
    key_dst = [||];
    values = [||];
    bytes = [||];
    timer = [||];
    times = [||];
    free = dead;
    fresh = 0;
    stamp = 0;
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
    alloc_pool t initial_ids;
    (* Tick at 1/8 of the aging time: expiry error stays under ~12%. *)
    let w = Timer_wheel.create ~tick:(t.default_aging /. 8.0) ~slots:256 in
    ignore (Timer_wheel.advance w ~now (fun _ -> ()) : int);
    t.wheel <- Some w;
    w

let entry_size t v = t.entry_overhead + t.value_bytes v

let fits t extra =
  match t.capacity with None -> true | Some cap -> t.used_bytes + extra <= cap

let aging_of t = function Some a -> a | None -> t.default_aging

(* The id of a live handle, else [dead]. *)
let id_of t h =
  let id = h land id_mask in
  if h >= 0 && id < t.fresh && Array.unsafe_get t.handle id = h then id else dead

(* A fired timer is re-linked in place; a pending one is replaced.  Only
   a sized table has bindings to arm. *)
let arm t ~now id d =
  match t.wheel with
  | Some w ->
    t.times.((2 * id) + 1) <- d;
    t.timer.(id) <- Timer_wheel.rearm w t.timer.(id) ~now ~deadline:d
  | None -> ()

(* Move [id]'s deadline to [now + aging].  A later deadline than the
   armed one is only stored: the timer re-arms itself when it fires.  An
   earlier one re-arms now. *)
let set_deadline t ~now ~aging id =
  let d = now +. aging in
  t.times.(2 * id) <- d;
  if d < t.times.((2 * id) + 1) then arm t ~now id d

let live_id fn t h =
  let id = id_of t h in
  if id = dead then invalid_arg ("Flow_table." ^ fn ^ ": dead entry");
  id

let lookup t (key : Flow_key.t) =
  let p = ports_word key and s = addr_word key.flow.src and d = addr_word key.flow.dst in
  let i = find_slot t (hash_words p s d) p s d in
  if i < 0 then dead else t.index.((2 * i) + 1)

let find_entry t key =
  let id = lookup t key in
  if id = dead then None else Some t.handle.(id)

let live t h = id_of t h <> dead
let value t h = Obj.obj t.values.(live_id "value" t h)

let refresh t ~now ?aging h = set_deadline t ~now ~aging:(aging_of t aging) (live_id "refresh" t h)

let replace_id t ~now ?aging id v =
  let nbytes = entry_size t v in
  let old = t.bytes.(id) in
  if fits t (nbytes - old) then begin
    t.used_bytes <- t.used_bytes + nbytes - old;
    t.values.(id) <- Obj.repr v;
    t.bytes.(id) <- nbytes;
    set_deadline t ~now ~aging:(aging_of t aging) id;
    Admission.ok
  end
  else Admission.table_full

let replace t ~now ?aging h v = replace_id t ~now ?aging (live_id "replace" t h) v

let insert t ~now ?aging (key : Flow_key.t) v =
  let p = ports_word key and s = addr_word key.flow.src and d = addr_word key.flow.dst in
  let h = hash_words p s d in
  let i = find_slot t h p s d in
  if i >= 0 then replace_id t ~now ?aging t.index.((2 * i) + 1) v
  else begin
    let nbytes = entry_size t v in
    if fits t nbytes then begin
      let dl = now +. aging_of t aging in
      let w = sized_wheel t ~now in
      let id = new_id t in
      t.key_ports.(id) <- p;
      t.key_src.(id) <- s;
      t.key_dst.(id) <- d;
      t.values.(id) <- Obj.repr v;
      t.bytes.(id) <- nbytes;
      t.times.(2 * id) <- dl;
      t.times.((2 * id) + 1) <- dl;
      t.timer.(id) <- Timer_wheel.add w ~now ~deadline:dl id;
      add_index t h id;
      t.used_bytes <- t.used_bytes + nbytes;
      Admission.ok
    end
    else Admission.table_full
  end

let find t key =
  let id = lookup t key in
  if id = dead then None else Some (Obj.obj t.values.(id))

let touch t ~now ?aging key =
  let id = lookup t key in
  if id = dead then false
  else begin
    set_deadline t ~now ~aging:(aging_of t aging) id;
    true
  end

let remove t (key : Flow_key.t) =
  let p = ports_word key and s = addr_word key.flow.src and d = addr_word key.flow.dst in
  let i = find_slot t (hash_words p s d) p s d in
  if i < 0 then false
  else begin
    let id = t.index.((2 * i) + 1) in
    (match t.wheel with Some w -> Timer_wheel.cancel w t.timer.(id) | None -> ());
    t.used_bytes <- t.used_bytes - t.bytes.(id);
    release t id;
    delete_slot t i;
    true
  end

(* A firing timer whose binding's deadline lies in a slot the sweep has
   not reached yet re-arms there; one whose deadline's slot is this one
   expires the binding.  Either way the binding leaves the table at the
   same [expire] call as a timer re-armed on every touch would.
   [on_expire] gets the released id, whose key words stay readable
   until the id is reused, and the binding's value. *)
let sweep t ~now on_expire =
  match t.wheel with
  | None -> 0
  | Some w ->
    let fired = ref 0 in
    ignore
      (Timer_wheel.advance w ~now (fun id ->
           let d = t.times.(2 * id) in
           if Timer_wheel.beyond_sweep w d then
             (* [~now:d]: arm exactly at [d], which may already be past. *)
             arm t ~now:d id d
           else begin
             let v = Obj.obj t.values.(id) in
             let mask = slots t - 1 in
             delete_slot t (slot_of t.index mask id (id_hash t id land mask));
             t.used_bytes <- t.used_bytes - t.bytes.(id);
             release t id;
             incr fired;
             on_expire id v
           end)
        : int);
    !fired

let expire t ~now ~on_expire = sweep t ~now (fun id v -> on_expire (key_of t id) v)
let expire_values t ~now ~on_expire = sweep t ~now (fun _ v -> on_expire v)

let length t = t.count
let memory_bytes t = t.used_bytes
let pending_timers t = match t.wheel with Some w -> Timer_wheel.pending w | None -> 0

let iter_ids t f =
  for i = 0 to slots t - 1 do
    if t.index.(2 * i) <> empty then begin
      let id = t.index.((2 * i) + 1) in
      f id (Obj.obj t.values.(id))
    end
  done

let iter t f = iter_ids t (fun id v -> f (key_of t id) v)
let iter_values t f = iter_ids t (fun _ v -> f v)

(* Like [Hashtbl.reset]: a grown index and pool shrink back to their
   first sizes.  The stamp runs on, so no handle issued before can match
   a binding inserted after. *)
let clear t =
  match t.wheel with
  | None -> ()
  | Some w ->
    for i = 0 to slots t - 1 do
      if t.index.(2 * i) <> empty then Timer_wheel.cancel w t.timer.(t.index.((2 * i) + 1))
    done;
    if slots t > initial_slots then alloc_index t initial_slots
    else Array.fill t.index 0 (Array.length t.index) empty;
    if Array.length t.handle > initial_ids then alloc_pool t initial_ids
    else begin
      Array.fill t.handle 0 t.fresh dead;
      Array.fill t.values 0 t.fresh filler;
      t.free <- dead;
      t.fresh <- 0
    end;
    t.count <- 0;
    t.used_bytes <- 0
