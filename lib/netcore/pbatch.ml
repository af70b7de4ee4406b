(* A flat, reusable vector of packets — the unit of work on the batched
   dataplane.  The backing array always holds valid [Packet.t] values
   (cleared slots point at a shared dummy), so access is bounds-checked
   against [len] only and no option boxing happens per slot.

   Batches follow an ownership discipline: passing a batch to an API
   transfers ownership, and the final consumer calls [recycle] to return
   it to the arena for reuse.  Recycling is an optimization, not an
   obligation — an un-recycled batch is ordinary GC garbage. *)

(* The dummy never reaches any datapath: it only parks empty slots so
   [clear] drops references to real packets.  Built as a raw record
   literal (uid 0, which [Packet.create] never assigns) so constructing
   it does not disturb the uid counter and runs stay reproducible. *)
let dummy : Packet.t =
  {
    Packet.uid = 0;
    vpc = Vpc.make 0;
    flow =
      Five_tuple.make ~src:(Ipv4.of_octets 0 0 0 0) ~dst:(Ipv4.of_octets 0 0 0 0)
        ~src_port:0 ~dst_port:0 ~proto:Five_tuple.Tcp;
    direction = Packet.Tx;
    flags = Packet.no_flags;
    payload_len = 0;
    vxlan = None;
    nsh = None;
    trace_id = 0;
  }

type t = {
  mutable pkts : Packet.t array;
  mutable len : int;
  mutable pooled : bool;  (** guards against double-recycle *)
}

let default_capacity = 32

let create ?(capacity = default_capacity) () =
  { pkts = Array.make (max 1 capacity) dummy; len = 0; pooled = false }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.pkts

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Pbatch.get: index out of bounds";
  t.pkts.(i)

let push t pkt =
  let cap = Array.length t.pkts in
  if t.len = cap then begin
    let bigger = Array.make (2 * cap) dummy in
    Array.blit t.pkts 0 bigger 0 cap;
    t.pkts <- bigger
  end;
  t.pkts.(t.len) <- pkt;
  t.len <- t.len + 1

let clear t =
  for i = 0 to t.len - 1 do
    t.pkts.(i) <- dummy
  done;
  t.len <- 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.pkts.(i)
  done

let iteri t f =
  for i = 0 to t.len - 1 do
    f i t.pkts.(i)
  done

let filter_in_place t keep =
  let w = ref 0 in
  for i = 0 to t.len - 1 do
    let pkt = t.pkts.(i) in
    if keep pkt then begin
      t.pkts.(!w) <- pkt;
      incr w
    end
  done;
  for i = !w to t.len - 1 do
    t.pkts.(i) <- dummy
  done;
  t.len <- !w

let of_list pkts =
  let t = create ~capacity:(max 1 (List.length pkts)) () in
  List.iter (push t) pkts;
  t

let to_list t = List.init t.len (fun i -> t.pkts.(i))

(* ------------------------------------------------------------------ *)
(* Arena.  A global freelist of cleared batches; [alloc]/[recycle] make
   steady-state batch traffic allocation-free (beyond growth).  The
   counters let tests assert that the arena actually recirculates. *)

let pool : t list ref = ref []
let pool_allocs = ref 0
let pool_reuses = ref 0
let pool_recycles = ref 0

let alloc () =
  match !pool with
  | b :: rest ->
    pool := rest;
    b.pooled <- false;
    incr pool_reuses;
    b
  | [] ->
    incr pool_allocs;
    create ()

let recycle t =
  if not t.pooled then begin
    t.pooled <- true;
    clear t;
    incr pool_recycles;
    pool := t :: !pool
  end

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Pbatch.sub";
  let b = alloc () in
  for i = pos to pos + len - 1 do
    push b t.pkts.(i)
  done;
  b

let singleton pkt =
  let t = alloc () in
  push t pkt;
  t

let pool_stats () = (!pool_allocs, !pool_reuses, !pool_recycles)

let reset_pool () =
  pool := [];
  pool_allocs := 0;
  pool_reuses := 0;
  pool_recycles := 0
