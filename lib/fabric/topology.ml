open Nezha_net

type server_id = int

type t = { racks : int; servers_per_rack : int }

let create ~racks ~servers_per_rack =
  if racks <= 0 || servers_per_rack <= 0 then
    invalid_arg "Topology.create: dimensions must be positive";
  if racks > 250 || servers_per_rack > 250 then
    invalid_arg "Topology.create: at most 250 racks x 250 servers (addressing)";
  { racks; servers_per_rack }

let server_count t = t.racks * t.servers_per_rack

let servers t = List.init (server_count t) Fun.id

let rack_of t sid = sid / t.servers_per_rack

let servers_in_rack t rack =
  List.init t.servers_per_rack (fun i -> (rack * t.servers_per_rack) + i)

let same_rack t a b = rack_of t a = rack_of t b

(* Underlay plan: 192.168.<rack+1>.<slot+1>; the gateway is 192.168.0.1. *)
let underlay_ip t sid =
  let rack = rack_of t sid and slot = sid mod t.servers_per_rack in
  Ipv4.of_octets 192 168 (rack + 1) (slot + 1)

let server_of_ip t addr =
  let raw = Int32.to_int (Ipv4.to_int32 addr) in
  let a = (raw lsr 24) land 0xff
  and b = (raw lsr 16) land 0xff
  and c = (raw lsr 8) land 0xff
  and d = raw land 0xff in
  if a <> 192 || b <> 168 || c < 1 || d < 1 then None
  else begin
    let rack = c - 1 and slot = d - 1 in
    if rack < t.racks && slot < t.servers_per_rack then
      Some ((rack * t.servers_per_rack) + slot)
    else None
  end

(* Built once: the fabric compares every delivered packet against it. *)
let gateway = Ipv4.of_octets 192 168 0 1
let gateway_ip _t = gateway

let same_server_latency = 2e-6
let same_rack_latency = 10e-6
let cross_rack_latency = 25e-6
let gateway_latency = 40e-6

let latency t a b =
  if a = b then same_server_latency
  else if same_rack t a b then same_rack_latency
  else cross_rack_latency

let latency_to_gateway _t _sid = gateway_latency
