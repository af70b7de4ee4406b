type proto = Tcp | Udp | Icmp

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp" | Icmp -> "icmp"
let pp_proto ppf p = Format.pp_print_string ppf (proto_to_string p)
let proto_code = function Tcp -> 6 | Udp -> 17 | Icmp -> 1

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : proto;
}

let make ~src ~dst ~src_port ~dst_port ~proto =
  { src; dst; src_port = src_port land 0xffff; dst_port = dst_port land 0xffff; proto }

let reverse t = { t with src = t.dst; dst = t.src; src_port = t.dst_port; dst_port = t.src_port }

(* The source endpoint orders first.  Every session hash runs this, so it
   compares the fields in place rather than as (address, port) pairs. *)
let is_canonical t =
  let c = Ipv4.compare t.src t.dst in
  c < 0 || (c = 0 && t.src_port <= t.dst_port)

let canonical t = if is_canonical t then t else reverse t

let compare a b =
  let c = Ipv4.compare a.src b.src in
  if c <> 0 then c
  else begin
    let c = Ipv4.compare a.dst b.dst in
    if c <> 0 then c
    else begin
      let c = Int.compare a.src_port b.src_port in
      if c <> 0 then c
      else begin
        let c = Int.compare a.dst_port b.dst_port in
        if c <> 0 then c else Int.compare (proto_code a.proto) (proto_code b.proto)
      end
    end
  end

let equal a b = compare a b = 0

(* Multiplicative FNV-style fold over the native int word.  This hash
   runs on every packet, so it must not allocate: the previous Int64
   formulation boxed every intermediate.  Wrapping is mod 2^63 instead
   of 2^64, which changes nothing for bucketing.  The low-order bits of
   a raw multiplicative fold avalanche poorly and FE selection takes
   [hash mod #FEs], so a SplitMix-style finisher mixes the high bits
   back down.  All constants fit in OCaml's 63-bit immediate int. *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x3bf29ce484222325

let[@inline] fold h v = (h lxor v) * fnv_prime

let[@inline] avalanche z =
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x27BB2EE687B0B0FD in
  z lxor (z lsr 31)

let[@inline] hash_fields ~src ~dst ~src_port ~dst_port ~proto =
  let s = Int32.to_int (Ipv4.to_int32 src) land 0xffffffff in
  let d = Int32.to_int (Ipv4.to_int32 dst) land 0xffffffff in
  let h = fold (fold (fold fnv_offset s) d) ((src_port lsl 16) lor dst_port) in
  avalanche (fold h (proto_code proto)) land max_int

let hash t =
  hash_fields ~src:t.src ~dst:t.dst ~src_port:t.src_port ~dst_port:t.dst_port ~proto:t.proto

(* Hash the canonical orientation without materializing it: when the
   tuple is not canonical, feed the fields in swapped order instead of
   allocating the reversed record. *)
let session_hash t =
  if is_canonical t then
    hash_fields ~src:t.src ~dst:t.dst ~src_port:t.src_port ~dst_port:t.dst_port ~proto:t.proto
  else
    hash_fields ~src:t.dst ~dst:t.src ~src_port:t.dst_port ~dst_port:t.src_port ~proto:t.proto

let to_string t =
  Printf.sprintf "%s:%d>%s:%d/%s" (Ipv4.to_string t.src) t.src_port (Ipv4.to_string t.dst)
    t.dst_port (proto_to_string t.proto)

let pp ppf t = Format.pp_print_string ppf (to_string t)
