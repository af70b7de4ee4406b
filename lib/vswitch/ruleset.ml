open Nezha_net
open Nezha_engine
open Nezha_tables

(* Megaflow cache (OVS-style): memoize slow-path results under a key
   masked just enough to stay correct.  The mask is derived from the
   whole ruleset: source bits up to the widest prefix any ACL rule uses
   (in either orientation — the RX check reverses roles, so dst prefixes
   constrain the TX source too), ports/proto only if some rule reads
   them.  Destination stays exact: routes, mappings and stats rules are
   all keyed by the peer address. *)
type mega_mask = { mask_src_len : int; mask_ports : bool; mask_proto : bool }

type mega_key = { mvpc : int; msrc : int; mdst : int; mports : int; mproto : int }

module Mega = Hashtbl.Make (struct
  type t = mega_key

  let equal a b =
    a.mvpc = b.mvpc && a.msrc = b.msrc && a.mdst = b.mdst && a.mports = b.mports
    && a.mproto = b.mproto

  let hash k =
    ((k.mvpc * 0x9e3779b1) lxor (k.msrc * 0x85ebca6b) lxor (k.mdst * 0xc2b2ae35)
    lxor (k.mports * 0x27d4eb2f) lxor k.mproto)
    land max_int
end)

type t = {
  vni : int;
  classifier : Classifier.t;
  rate_limit_bps : int option;
  stats_rules : (Ipv4.Prefix.t * Pre_action.stats_spec) list;
  stateful_decap : bool;
  mirror : bool;
  extra_tables : int;
  fixed_overhead_bytes : int;
  lookup_extra_cycles : int;
  route : unit Lpm.t;
  mapping : Ipv4.t array Vnic.Addr.Table.t;
  mutable generation : int;
  mega : Pre_action.t Mega.t;
  mutable mega_mask : mega_mask;
  mutable mega_gen : int; (* generation the cache contents reflect *)
  mutable mega_rev : int; (* classifier revision ditto *)
  mega_hits : Stats.Counter.t;
  mega_misses : Stats.Counter.t;
}

let mapping_entry_bytes = 40 (* overlay addr + VPC + underlay addr + MAC + flags *)
let stats_rule_bytes = 24
let mega_capacity = 8192
let mega_entry_bytes = 56 (* masked key + boxed pre-action pointer + bucket slot *)

let exact_mask = { mask_src_len = 32; mask_ports = true; mask_proto = true }

let create ~vni ?acl ?rate_limit_bps ?(stats_rules = [])
    ?(stateful_decap = false) ?(mirror = false) ?(extra_tables = 0)
    ?(fixed_overhead_bytes = 2 * 1024 * 1024) ?(lookup_extra_cycles = 0) () =
  let classifier =
    match acl with
    | Some acl -> Classifier.of_acl acl
    | None -> Classifier.create ()
  in
  {
    vni;
    classifier;
    rate_limit_bps;
    stats_rules;
    stateful_decap;
    mirror;
    extra_tables = max 0 extra_tables;
    fixed_overhead_bytes;
    lookup_extra_cycles = max 0 lookup_extra_cycles;
    route = Lpm.create ();
    mapping = Vnic.Addr.Table.create 64;
    generation = 0;
    mega = Mega.create 256;
    mega_mask = exact_mask;
    mega_gen = min_int;
    mega_rev = min_int;
    mega_hits = Stats.Counter.create ();
    mega_misses = Stats.Counter.create ();
  }

let vni t = t.vni
let classifier t = t.classifier
let acl t = Classifier.acl t.classifier
let stateful_decap t = t.stateful_decap

let bump t = t.generation <- t.generation + 1

let add_route t prefix =
  Lpm.insert t.route prefix ();
  bump t

let remove_route t prefix =
  let r = Lpm.remove t.route prefix in
  if r then bump t;
  r

let add_mapping t addr server =
  Vnic.Addr.Table.replace t.mapping addr [| server |];
  bump t

let set_mapping_multi t addr servers =
  if Array.length servers = 0 then invalid_arg "Ruleset.set_mapping_multi: empty target set";
  Vnic.Addr.Table.replace t.mapping addr (Array.copy servers);
  bump t

let find_mapping t addr = Vnic.Addr.Table.find_opt t.mapping addr

let remove_mapping t addr =
  if Vnic.Addr.Table.mem t.mapping addr then begin
    Vnic.Addr.Table.remove t.mapping addr;
    bump t;
    true
  end
  else false

let mapping_count t = Vnic.Addr.Table.length t.mapping

(* ACL, QoS, policy, VXLAN routing, vNIC-server mapping (§2.2.2). *)
let base_tables = 5

let table_count t = base_tables + t.extra_tables

type lookup_result = { pre : Pre_action.t; cycles : int }

let stats_for t peer_ip =
  List.find_map
    (fun (prefix, spec) -> if Ipv4.Prefix.mem peer_ip prefix then Some spec else None)
    t.stats_rules

let compute_mega_mask t =
  let src_len = ref 0 and ports = ref false and proto = ref false in
  Acl.iter_rules (acl t) (fun r ->
      let plen = function Some p -> Ipv4.Prefix.length p | None -> 0 in
      src_len := max !src_len (max (plen r.Acl.src) (plen r.Acl.dst));
      if r.Acl.src_ports <> None || r.Acl.dst_ports <> None then ports := true;
      if r.Acl.proto <> None then proto := true);
  { mask_src_len = !src_len; mask_ports = !ports; mask_proto = !proto }

(* Flush on any table mutation — [generation] covers route/mapping/ACL
   changes announced via [bump_generation]; [Classifier.revision]
   additionally catches direct mutations through the ACL handle. *)
let refresh_megaflow t =
  let rev = Classifier.revision t.classifier in
  if t.mega_gen <> t.generation || t.mega_rev <> rev then begin
    Mega.reset t.mega;
    t.mega_mask <- compute_mega_mask t;
    t.mega_gen <- t.generation;
    t.mega_rev <- rev
  end

let[@inline] mask_bits len = if len <= 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

let mega_key_of t ~vpc ~(flow_tx : Five_tuple.t) =
  let m = t.mega_mask in
  {
    mvpc = Vpc.to_int vpc;
    msrc = Int32.to_int (Ipv4.to_int32 flow_tx.Five_tuple.src) land mask_bits m.mask_src_len;
    mdst = Int32.to_int (Ipv4.to_int32 flow_tx.Five_tuple.dst) land 0xffffffff;
    mports =
      (if m.mask_ports then (flow_tx.Five_tuple.src_port lsl 16) lor flow_tx.Five_tuple.dst_port
       else 0);
    mproto = (if m.mask_proto then Five_tuple.proto_code flow_tx.Five_tuple.proto else -1);
  }

let lookup t ~vpc ~flow_tx =
  refresh_megaflow t;
  let key = mega_key_of t ~vpc ~flow_tx in
  match Mega.find_opt t.mega key with
  | Some pre ->
    Stats.Counter.incr t.mega_hits;
    Some { pre; cycles = Params.megaflow_hit_cycles }
  | None ->
    Stats.Counter.incr t.mega_misses;
    let peer_ip = flow_tx.Five_tuple.dst in
    let route_hit, lpm_depth = Lpm.lookup_with_depth t.route peer_ip in
    (match route_hit with
    | None ->
      (* Unroutable: the slow path still burned the cycles of a failed
         pipeline walk, but there is nothing to cache. *)
      None
    | Some (_, ()) ->
      let tx_verdict = Classifier.lookup t.classifier flow_tx in
      let rx_verdict = Classifier.lookup_reverse t.classifier flow_tx in
      let scanned =
        max tx_verdict.Classifier.rules_scanned rx_verdict.Classifier.rules_scanned
      in
      let peer_server, cacheable =
        match Vnic.Addr.Table.find_opt t.mapping { Vnic.Addr.vpc; ip = peer_ip } with
        | None -> (None, true)
        | Some [| only |] -> (Some only, true)
        | Some targets ->
          (* Several targets = the peer is offloaded to several FEs; pick
             one per session by canonical 5-tuple hash (flow-level load
             balancing).  Hashing the canonical form makes both directions
             of a session choose the same FE, so its cached flow is built
             once; Nezha's design also allows splitting directions across
             FEs (§3.2.3) at the cost of duplicate rule lookups.  The
             choice depends on the full tuple, so the masked cache entry
             would pin every session to one FE — not cacheable. *)
          (Some targets.(Five_tuple.session_hash flow_tx mod Array.length targets), false)
      in
      let pre =
        {
          Pre_action.acl_tx = tx_verdict.Classifier.action;
          acl_rx = rx_verdict.Classifier.action;
          vni = t.vni;
          peer_server;
          rate_limit_bps = t.rate_limit_bps;
          stats = stats_for t peer_ip;
          stateful_decap = t.stateful_decap;
          mirror = t.mirror;
        }
      in
      if cacheable && Mega.length t.mega < mega_capacity then Mega.replace t.mega key pre;
      let cycles =
        Params.rule_lookup_cycles ~acl_rules_scanned:scanned ~lpm_depth
          ~tables:(table_count t)
        + t.lookup_extra_cycles
      in
      Some { pre; cycles })

(* The batched datapath resolves one lookup per flow-key group and lets
   the other members of the group ride the result.  Each such member is
   exactly what a megaflow hit would have been had it come in a batch
   of its own, so it is reported here to keep the hit/miss telemetry
   independent of how packets were grouped. *)
let note_megaflow_hit t = Stats.Counter.incr t.mega_hits

let megaflow_hits t = Stats.Counter.value t.mega_hits
let megaflow_misses t = Stats.Counter.value t.mega_misses
let megaflow_entries t = Mega.length t.mega
let classifier_tuples t = Classifier.tuple_count t.classifier
let classifier_backend t = Classifier.backend t.classifier
let classifier_memory_bytes t = Classifier.memory_bytes t.classifier

let extra_target_bytes = 8

let memory_bytes t =
  let extra_targets =
    Vnic.Addr.Table.fold (fun _ targets acc -> acc + Array.length targets - 1) t.mapping 0
  in
  t.fixed_overhead_bytes
  + Classifier.memory_bytes t.classifier
  + Lpm.memory_bytes t.route
  + (mapping_count t * mapping_entry_bytes)
  + (extra_targets * extra_target_bytes)
  + (Mega.length t.mega * mega_entry_bytes)
  + (List.length t.stats_rules * stats_rule_bytes)

let generation t = t.generation

let bump_generation t = bump t

let clone t =
  {
    vni = t.vni;
    classifier = Classifier.copy t.classifier;
    rate_limit_bps = t.rate_limit_bps;
    stats_rules = t.stats_rules;
    stateful_decap = t.stateful_decap;
    mirror = t.mirror;
    extra_tables = t.extra_tables;
    fixed_overhead_bytes = t.fixed_overhead_bytes;
    lookup_extra_cycles = t.lookup_extra_cycles;
    route = Lpm.copy t.route;
    mapping = Vnic.Addr.Table.copy t.mapping;
    generation = t.generation;
    mega = Mega.create 256;
    mega_mask = exact_mask;
    mega_gen = min_int;
    mega_rev = min_int;
    mega_hits = Stats.Counter.create ();
    mega_misses = Stats.Counter.create ();
  }
