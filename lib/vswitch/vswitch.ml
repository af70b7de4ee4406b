open Nezha_engine
open Nezha_net
open Nezha_tables
module Trace = Nezha_telemetry.Trace

type output = To_vm of Vnic.id * Packet.t | To_net of Packet.t

(* The transmit side of the vSwitch.  [on_output] carries one packet at
   a time (every [To_vm], plus the BE/FE control sends); [on_net_batch]
   carries an encapsulated net burst, ownership included — the sink
   recycles the batch. *)
type sink = { on_output : output -> unit; on_net_batch : Pbatch.t -> unit }

type counters = {
  rx_packets : Stats.Counter.t;
  tx_packets : Stats.Counter.t;
  delivered : Stats.Counter.t;
  forwarded : Stats.Counter.t;
  slow_path_execs : Stats.Counter.t;
  fast_path_hits : Stats.Counter.t;
  sessions_created : Stats.Counter.t;
  notify_packets : Stats.Counter.t;
  drops : Stats.Counter.t array; (* indexed by Nf.drop_reason_index *)
}

type session = { pre : Pre_action.t option; state : State.t option; generation : int }

type intercept = {
  on_tx : Packet.t -> [ `Handled | `Continue ];
  on_rx : Packet.t -> [ `Handled | `Continue ];
  on_tx_batch : (Pbatch.t -> unit) option;
      (* vectored TX interception; [None] falls back to [on_tx] per
         packet.  The handler owns (and recycles) the batch. *)
}

type flow_record = {
  key : Flow_key.t;
  packets : int;
  bytes : int;
  first_dir : Packet.direction;
}

type vnic_entry = {
  vnic : Vnic.t;
  mutable ruleset : Ruleset.t option;
  mutable rule_bytes : int; (* reserved on the NIC for rule tables *)
  mutable residual_bytes : int; (* BE metadata kept after offload *)
  sessions : session Flow_table.t;
  mutable intercept : intercept option;
  slow_execs : Stats.Counter.t;
  mutable rate_limit : Token_bucket.t option;
}

type t = {
  sim : Sim.t;
  params : Params.t;
  name : string;
  underlay_ip : Ipv4.t;
  gateway : Ipv4.t;
  nic : Smartnic.t;
  vnics : vnic_entry Vnic.Id_table.t;
  by_addr : Vnic.t Vnic.Addr.Table.t;
  counters : counters;
  mutable transmit : output -> unit;
  mutable transmit_batch : Pbatch.t -> unit;
  mutable version : int;
  mutable flow_log : (flow_record -> unit) option;
  mutable flow_records : int;
  mutable mirror_target : Ipv4.t option;
  mutable mirrored : int;
  mutable learner : (Vnic.Addr.t -> (Ipv4.t array * float) option) option;
  mutable learning : unit Vnic.Addr.Table.t; (* queries in flight *)
  mutable net_hook : (Packet.t -> outer:Packet.vxlan option -> [ `Handled | `Continue ]) option;
  mutable net_hook_batch : (Pbatch.t -> Pbatch.t option) option;
      (* vectored net hook: receives still-encapsulated NSH traffic,
         returns the (still-encapsulated) leftover it declined, or
         [None] when everything was consumed. *)
  mutable tracer : Trace.t option;
  (* Controller-epoch fence: the highest epoch ever observed.  Like a
     Chubby/ZooKeeper fence token it survives crashes (the one durably
     persisted item), so a revived stale controller can never win. *)
  mutable epoch : int;
  mutable epoch_rejections : int;
  (* Saved by [register_telemetry] so vNICs added later still get their
     per-vNIC instruments (and removed vNICs drop theirs). *)
  mutable telemetry : Nezha_telemetry.Telemetry.t option;
}

let make_counters () =
  {
    rx_packets = Stats.Counter.create ();
    tx_packets = Stats.Counter.create ();
    delivered = Stats.Counter.create ();
    forwarded = Stats.Counter.create ();
    slow_path_execs = Stats.Counter.create ();
    fast_path_hits = Stats.Counter.create ();
    sessions_created = Stats.Counter.create ();
    notify_packets = Stats.Counter.create ();
    drops = Array.init Nf.drop_reason_count (fun _ -> Stats.Counter.create ());
  }

(* Accounted size of a session entry: key bytes, plus the cached
   bidirectional pre-actions when present, plus the fixed state slot. *)
let key_bytes = 40

let session_bytes params s =
  key_bytes
  + (match s.pre with Some _ -> params.Params.session_entry_overhead - key_bytes | None -> 0)
  + (match s.state with Some _ -> params.Params.state_slot_bytes | None -> 0)

let create ~sim ~params ~name ~underlay_ip ~gateway () =
  let t =
    {
      sim;
      params;
      name;
      underlay_ip;
      gateway;
      nic = Smartnic.create ~sim ~params ~name;
      vnics = Vnic.Id_table.create 16;
      by_addr = Vnic.Addr.Table.create 16;
      counters = make_counters ();
      transmit = (fun _ -> failwith "Vswitch: transmit not installed");
      transmit_batch = (fun _ -> failwith "Vswitch: sink not installed");
      version = 0;
      flow_log = None;
      flow_records = 0;
      mirror_target = None;
      mirrored = 0;
      learner = None;
      learning = Vnic.Addr.Table.create 8;
      net_hook = None;
      net_hook_batch = None;
      tracer = None;
      epoch = 0;
      epoch_rejections = 0;
      telemetry = None;
    }
  in
  (* Aging pump: sweep session tables a few times per aging period. *)
  let period = params.Params.flow_aging /. 4.0 in
  Sim.every sim ~period (fun sim' ->
      let now = Sim.now sim' in
      Vnic.Id_table.iter
        (fun _ e ->
          ignore
            (Flow_table.expire e.sessions ~now ~on_expire:(fun key v ->
                 Smartnic.mem_release t.nic (session_bytes t.params v);
                 (* Flow logging: counted sessions emit a record on exit. *)
                 match (t.flow_log, v.state) with
                 | Some sink, Some { State.stats = Some s; first_dir; _ } ->
                   t.flow_records <- t.flow_records + 1;
                   sink { key; packets = s.State.packets; bytes = s.State.bytes; first_dir }
                 | _, _ -> ())
              : int))
        t.vnics;
      true);
  t

let name t = t.name
let sim t = t.sim
let params t = t.params
let underlay_ip t = t.underlay_ip
let gateway t = t.gateway
let nic t = t.nic
let counters t = t.counters

let software_version t = t.version
let set_software_version t v = t.version <- v

let drop_counter t reason = t.counters.drops.(Nf.drop_reason_index reason)

let drop_count t reason = Stats.Counter.value (drop_counter t reason)

let total_drops t =
  Array.fold_left (fun acc c -> acc + Stats.Counter.value c) 0 t.counters.drops

let count_drop t reason = Stats.Counter.incr (drop_counter t reason)
let count_notify t = Stats.Counter.incr t.counters.notify_packets

let set_sink t s =
  t.transmit <- s.on_output;
  t.transmit_batch <- s.on_net_batch

(* ------------------------------------------------------------------ *)
(* Tracing.  The vSwitch is the allocation point (a trace starts where
   the VM handed over the packet) and the guard for every emitter: with
   no tracer installed, or an untraced packet, each site is one match. *)

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let trace_begin t pkt =
  match t.tracer with
  | Some tr when pkt.Packet.trace_id = 0 ->
    let id = Trace.next_id tr in
    if id <> 0 then begin
      pkt.Packet.trace_id <- id;
      Trace.begin_trace tr ~id ~now:(Sim.now t.sim)
    end
  | Some _ | None -> ()

let trace_span t pkt ~name ~component ?kind ?site ?args ~t0 () =
  match t.tracer with
  | Some tr when pkt.Packet.trace_id <> 0 ->
    Trace.add_span tr ~id:pkt.Packet.trace_id ~name ~component ?kind ?site ?args ~t0
      ~t1:(Sim.now t.sim) ()
  | Some _ | None -> ()

(* The [trace_id] test keeps untraced packets from building the
   component name. *)
let trace_stage t pkt ~name ?args ~t0 () =
  if pkt.Packet.trace_id <> 0 then
    trace_span t pkt ~name ~component:("vswitch/" ^ t.name) ?args ~t0 ()

let trace_detail t pkt ~name ?args ~t0 () =
  if pkt.Packet.trace_id <> 0 then
    trace_span t pkt ~name ~component:("vswitch/" ^ t.name) ~kind:Trace.Detail ?args ~t0 ()

let emit t out =
  (match out with
  | To_vm (_, _) -> Stats.Counter.incr t.counters.delivered
  | To_net _ -> Stats.Counter.incr t.counters.forwarded);
  t.transmit out

(* Send an encapsulated net burst.  Counting happens here (mirroring
   [emit]) so both sink arms agree on [forwarded]. *)
let emit_batch t batch =
  if Pbatch.is_empty batch then Pbatch.recycle batch
  else begin
    Stats.Counter.add t.counters.forwarded (Pbatch.length batch);
    t.transmit_batch batch
  end

(* ------------------------------------------------------------------ *)
(* vNIC management *)

let new_sessions t =
  Flow_table.create ~entry_overhead:0
    ~value_bytes:(fun s -> session_bytes t.params s)
    ~default_aging:t.params.Params.flow_aging ()

let vnic_telemetry_prefix t vid =
  "vswitch/" ^ t.name ^ "/vnic/" ^ string_of_int (Vnic.id_to_int vid) ^ "/"

(* Per-vNIC classifier instruments.  Under the [Auto] policy the backend
   is a decision the classifier makes from the ruleset's shape, not a
   configuration — so the gauge reports which engine is actually serving
   the tenant's ACL (0 = linear, 1 = tss, 2 = learned) together with the
   index's memory footprint. *)
let register_vnic_telemetry t reg vid ruleset =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = vnic_telemetry_prefix t vid in
  T.register_gauge reg
    ~name:(prefix ^ "classifier_backend")
    (fun () ->
      float_of_int (Classifier.backend_code (Ruleset.classifier_backend ruleset)));
  T.register_gauge reg
    ~name:(prefix ^ "classifier_memory_bytes")
    (fun () -> float_of_int (Ruleset.classifier_memory_bytes ruleset))

let add_vnic t vnic ruleset =
  let bytes = Ruleset.memory_bytes ruleset in
  if Smartnic.mem_reserve t.nic bytes then begin
    let entry =
      {
        vnic;
        ruleset = Some ruleset;
        rule_bytes = bytes;
        residual_bytes = 0;
        sessions = new_sessions t;
        intercept = None;
        slow_execs = Stats.Counter.create ();
        rate_limit = None;
      }
    in
    Vnic.Id_table.replace t.vnics vnic.Vnic.id entry;
    Vnic.Addr.Table.replace t.by_addr (Vnic.addr vnic) vnic;
    (match t.telemetry with
    | Some reg -> register_vnic_telemetry t reg vnic.Vnic.id ruleset
    | None -> ());
    Admission.ok
  end
  else Admission.no_memory

let release_sessions t e =
  Flow_table.iter e.sessions (fun _ v -> Smartnic.mem_release t.nic (session_bytes t.params v));
  Flow_table.clear e.sessions

(* Crash semantics: everything living in the dataplane process's memory
   vanishes — session tables (and their NIC reservations), megaflow
   caches, in-flight learning queries, BE/FE packet hooks, intercepts,
   mirrors, flow-log backlog, counters.  Rulesets, vNIC registrations
   and rate-limit config are tenant intent re-pushed from the durable
   store during reboot, modelled as surviving in place; the epoch fence
   is durably persisted by design (see DESIGN.md §13). *)
let wipe_volatile t =
  Vnic.Id_table.iter
    (fun _ e ->
      release_sessions t e;
      e.intercept <- None;
      Stats.Counter.reset e.slow_execs;
      (* The megaflow cache dies with the process: a generation bump
         invalidates every cached entry without touching the rules. *)
      match e.ruleset with Some rs -> Ruleset.bump_generation rs | None -> ())
    t.vnics;
  Vnic.Addr.Table.reset t.learning;
  t.net_hook <- None;
  t.net_hook_batch <- None;
  t.mirror_target <- None;
  t.mirrored <- 0;
  t.flow_records <- 0;
  let c = t.counters in
  Stats.Counter.reset c.rx_packets;
  Stats.Counter.reset c.tx_packets;
  Stats.Counter.reset c.delivered;
  Stats.Counter.reset c.forwarded;
  Stats.Counter.reset c.slow_path_execs;
  Stats.Counter.reset c.fast_path_hits;
  Stats.Counter.reset c.sessions_created;
  Stats.Counter.reset c.notify_packets;
  Array.iter Stats.Counter.reset c.drops

let epoch t = t.epoch
let epoch_rejections t = t.epoch_rejections

let observe_epoch t ~epoch =
  if epoch >= t.epoch then begin
    t.epoch <- epoch;
    true
  end
  else begin
    t.epoch_rejections <- t.epoch_rejections + 1;
    false
  end

let remove_vnic t vid =
  match Vnic.Id_table.find_opt t.vnics vid with
  | None -> ()
  | Some e ->
    release_sessions t e;
    Smartnic.mem_release t.nic (e.rule_bytes + e.residual_bytes);
    Vnic.Addr.Table.remove t.by_addr (Vnic.addr e.vnic);
    Vnic.Id_table.remove t.vnics vid;
    (match t.telemetry with
    | Some reg ->
      Nezha_telemetry.Telemetry.unregister_prefix reg ~prefix:(vnic_telemetry_prefix t vid)
    | None -> ())

let vnic_count t = Vnic.Id_table.length t.vnics
let find_vnic t addr = Vnic.Addr.Table.find_opt t.by_addr addr
let vnic_ids t = Vnic.Id_table.fold (fun id _ acc -> id :: acc) t.vnics []

let entry t vid = Vnic.Id_table.find_opt t.vnics vid

let vnic_info t vid = Option.map (fun e -> e.vnic) (entry t vid)

let ruleset t vid = Option.bind (entry t vid) (fun e -> e.ruleset)

let drop_cached_flows t e =
  (* Remove entries that carry pre-actions; keep pure-state entries. *)
  let victims = ref [] in
  Flow_table.iter e.sessions (fun k v -> if v.pre <> None then victims := (k, v) :: !victims);
  List.iter
    (fun (k, v) ->
      Smartnic.mem_release t.nic (session_bytes t.params v);
      (match v.state with
      | Some st ->
        (* Preserve the state in a slimmed entry (BE keeps state). *)
        let slim = { pre = None; state = Some st; generation = v.generation } in
        if Smartnic.mem_reserve t.nic (session_bytes t.params slim) then
          ignore
            (Flow_table.insert e.sessions ~now:(Sim.now t.sim) k slim : Admission.t)
        else ignore (Flow_table.remove e.sessions k : bool)
      | None -> ignore (Flow_table.remove e.sessions k : bool)))
    !victims

let drop_ruleset t vid =
  match entry t vid with
  | None -> ()
  | Some e ->
    Smartnic.mem_release t.nic e.rule_bytes;
    e.rule_bytes <- 0;
    e.ruleset <- None;
    let residual = t.params.Params.be_residual_bytes_per_vnic in
    if e.residual_bytes = 0 && Smartnic.mem_reserve t.nic residual then
      e.residual_bytes <- residual;
    drop_cached_flows t e

let restore_ruleset t vid ruleset =
  match entry t vid with
  | None -> Admission.no_memory
  | Some e ->
    let bytes = Ruleset.memory_bytes ruleset in
    if Smartnic.mem_reserve t.nic bytes then begin
      Smartnic.mem_release t.nic e.residual_bytes;
      e.residual_bytes <- 0;
      e.ruleset <- Some ruleset;
      e.rule_bytes <- bytes;
      Admission.ok
    end
    else Admission.no_memory

let sync_rule_memory t vid =
  match entry t vid with
  | None -> Admission.ok
  | Some e -> (
    match e.ruleset with
    | None -> Admission.ok
    | Some rs ->
      let want = Ruleset.memory_bytes rs in
      let delta = want - e.rule_bytes in
      if delta <= 0 then begin
        Smartnic.mem_release t.nic (-delta);
        e.rule_bytes <- want;
        Admission.ok
      end
      else if Smartnic.mem_reserve t.nic delta then begin
        e.rule_bytes <- want;
        Admission.ok
      end
      else Admission.no_memory)

(* ------------------------------------------------------------------ *)
(* Session table *)

let find_session t vid key =
  match entry t vid with None -> None | Some e -> Flow_table.find e.sessions key

let aging_for t s =
  match s.state with
  | Some st when State.is_establishing st -> Some t.params.Params.syn_aging
  | Some _ | None -> Some t.params.Params.flow_aging

let store_session t vid key s =
  match entry t vid with
  | None -> Admission.table_full
  | Some e ->
    let old_bytes =
      match Flow_table.find e.sessions key with
      | Some old -> session_bytes t.params old
      | None -> 0
    in
    let new_bytes = session_bytes t.params s in
    let delta = new_bytes - old_bytes in
    let reserved = if delta > 0 then Smartnic.mem_reserve t.nic delta else true in
    if not reserved then Admission.table_full
    else begin
      if delta < 0 then Smartnic.mem_release t.nic (-delta);
      let aging = aging_for t s in
      (match Flow_table.insert e.sessions ~now:(Sim.now t.sim) ?aging key s with
      | Ok () ->
        if old_bytes = 0 then Stats.Counter.incr t.counters.sessions_created;
        Admission.ok
      | Error _ ->
        (* Unbounded table: cannot happen, but keep accounting honest. *)
        if delta > 0 then Smartnic.mem_release t.nic delta;
        Admission.table_full)
    end

let remove_session t vid key =
  match entry t vid with
  | None -> false
  | Some e -> (
    match Flow_table.find e.sessions key with
    | None -> false
    | Some v ->
      Smartnic.mem_release t.nic (session_bytes t.params v);
      Flow_table.remove e.sessions key)

let touch_session t vid key =
  match entry t vid with
  | None -> ()
  | Some e ->
    let aging =
      match Flow_table.find e.sessions key with
      | Some s -> aging_for t s
      | None -> None
    in
    ignore (Flow_table.touch e.sessions ~now:(Sim.now t.sim) ?aging key : bool)

let iter_sessions t vid f =
  match entry t vid with None -> () | Some e -> Flow_table.iter e.sessions f

let session_count t vid =
  match entry t vid with None -> 0 | Some e -> Flow_table.length e.sessions

let total_sessions t =
  Vnic.Id_table.fold (fun _ e acc -> acc + Flow_table.length e.sessions) t.vnics 0

let invalidate_cached_flows t vid =
  match entry t vid with
  | None -> ()
  | Some e -> (
    match e.ruleset with
    | None -> ()
    | Some rs ->
      let current = Ruleset.generation rs in
      let victims = ref [] in
      Flow_table.iter e.sessions (fun k v ->
          if v.pre <> None && v.generation <> current then victims := k :: !victims);
      List.iter (fun k -> ignore (remove_session t vid k : bool)) !victims)

(* ------------------------------------------------------------------ *)
(* Datapath *)

let charge t ~cycles k =
  if not (Smartnic.submit t.nic ~cycles k) then
    count_drop t
      (if Smartnic.is_crashed t.nic then Nf.Nic_crashed else Nf.Queue_overflow)

(* One submission for a whole batch: the SmartNIC schedules a single
   event for the summed cycles — the event-dispatch amortization that
   motivates vectoring.  A rejected submission loses every packet of
   the batch, so the drop counter advances by [npkts]. *)
let charge_batch t ~cycles ~npkts k =
  if Smartnic.submit t.nic ~cycles k then true
  else begin
    let reason =
      if Smartnic.is_crashed t.nic then Nf.Nic_crashed else Nf.Queue_overflow
    in
    Stats.Counter.add (drop_counter t reason) npkts;
    false
  end

let slow_path t rs ~vpc ~flow_tx =
  Stats.Counter.incr t.counters.slow_path_execs;
  Ruleset.lookup rs ~params:t.params ~vpc ~flow_tx

let deliver_local t vid pkt = emit t (To_vm (vid, pkt))

let set_intercept t vid i =
  match entry t vid with None -> () | Some e -> e.intercept <- i

let set_net_hook t h = t.net_hook <- h
let set_net_hook_batch t h = t.net_hook_batch <- h

let set_mapping_learner t l = t.learner <- l

(* A slow-path lookup found no vNIC-server entry: the packet detours via
   the gateway, and we ask for the authoritative entry once; it installs
   after the learning delay. *)
let learn_mapping t ~vid ~addr =
  match t.learner with
  | None -> ()
  | Some learner ->
    if not (Vnic.Addr.Table.mem t.learning addr) then begin
      Vnic.Addr.Table.replace t.learning addr ();
      match learner addr with
      | None -> Vnic.Addr.Table.remove t.learning addr
      | Some (targets, delay) ->
        ignore
          (Sim.schedule t.sim ~delay (fun _ ->
               Vnic.Addr.Table.remove t.learning addr;
               match entry t vid with
               | Some { ruleset = Some current; _ } ->
                 Ruleset.set_mapping_multi current addr targets;
                 ignore (sync_rule_memory t vid : Admission.t)
               | Some { ruleset = None; _ } | None -> ())
            : Sim.handle)
    end

let set_mirror_target t target = t.mirror_target <- target

let packets_mirrored t = t.mirrored

(* Mirroring: ship an independent copy of the tenant packet to the
   collector.  The copy is a fresh packet (fresh uid) so tracing tools
   can tell original and mirror apart. *)
let maybe_mirror t (pre : Pre_action.t) pkt =
  match (pre.Pre_action.mirror, t.mirror_target) with
  | true, Some collector ->
    let copy =
      Packet.create ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow ~direction:pkt.Packet.direction
        ~flags:pkt.Packet.flags ~payload_len:pkt.Packet.payload_len ()
    in
    Packet.encap_vxlan copy ~vni:pre.Pre_action.vni ~outer_src:t.underlay_ip
      ~outer_dst:collector;
    t.mirrored <- t.mirrored + 1;
    emit t (To_net copy)
  | _, _ -> ()

(* ------------------------------------------------------------------ *)
(* Local datapath (§2.1).  Every entry point runs its packets through
   [local_batch]: a single packet is a batch of one.

   One pass over the burst groups packets by flow key (a linear scan
   over the packets seen so far — batches are small) and resolves each
   group once: a session-table hit or one slow-path execution, with the
   rest of the group riding the result.  The whole burst is then charged
   as a single SmartNIC submission (one event for the summed cycles) and
   the continuation replays the per-packet sequence in order, so state
   evolution, stored sessions and verdicts match a packet-at-a-time
   burst observably.

   Counter discipline: group followers advance the same counters a
   batch of one would have (fast-path hit, or slow-path execution whose
   lookup degenerates to a megaflow hit).  Flows whose peer maps to
   several FEs are the one divergence: batches of one re-walk the
   pipeline per packet (their megaflow entry is uncacheable) while a
   burst's followers ride the leader's result — same pre-actions (the
   FE pick hashes the flow, identical within a group), fewer walk
   cycles. *)

(* How a packet's flow group resolved.  [Cached] carries the session-
   table entry that hit; [Walked] the entry a slow-path walk will store
   (state filled in at commit) and the walk's lookup cycles. *)
type resolution =
  | Cached of Pre_action.t * session
  | Walked of Pre_action.t * session * int
  | Unroutable

let dir_args = function Packet.Tx -> [ ("dir", "tx") ] | Packet.Rx -> [ ("dir", "rx") ]

(* The rule-table walk runs on the TX-orientation tuple: a first packet
   arriving from outside is walked on the reverse of what was received. *)
let walk t rs ~dir pkt =
  let flow_tx =
    match dir with
    | Packet.Tx -> pkt.Packet.flow
    | Packet.Rx -> Five_tuple.reverse pkt.Packet.flow
  in
  slow_path t rs ~vpc:pkt.Packet.vpc ~flow_tx

let failed_walk_cycles t rs =
  Params.rule_lookup_cycles t.params ~acl_rules_scanned:0 ~lpm_depth:32
    ~tables:(Ruleset.table_count rs)

(* A group leader: the session table, else one slow-path walk. *)
let resolve t e rs ~dir ~generation pkt key =
  match find_session t e.vnic.Vnic.id key with
  | Some ({ pre = Some pre; _ } as s) when s.generation = generation ->
    Stats.Counter.incr t.counters.fast_path_hits;
    Cached (pre, s)
  | Some _ | None -> (
    Stats.Counter.incr e.slow_execs;
    match walk t rs ~dir pkt with
    | None -> Unroutable
    | Some { Ruleset.pre; cycles } ->
      if dir = Packet.Tx && pre.Pre_action.peer_server = None then
        learn_mapping t ~vid:e.vnic.Vnic.id
          ~addr:{ Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.dst };
      Walked (pre, { pre = Some pre; state = None; generation }, cycles))

(* A follower accounts what its own batch of one would have done. *)
let follow t e rs ~dir pkt = function
  | Cached _ as r ->
    Stats.Counter.incr t.counters.fast_path_hits;
    r
  | Walked (pre, s, _) ->
    Stats.Counter.incr e.slow_execs;
    Stats.Counter.incr t.counters.slow_path_execs;
    Ruleset.note_megaflow_hit rs;
    Walked (pre, s, t.params.Params.megaflow_hit_cycles)
  | Unroutable ->
    (* Unroutable groups are not memoized: a batch of one burns a failed
       walk per packet, so replay it. *)
    Stats.Counter.incr e.slow_execs;
    ignore (walk t rs ~dir pkt : Ruleset.lookup_result option);
    Unroutable

let run_nf ~dir ?decap_src ~pre ~state pkt =
  Nf.process ~pre ~state ~dir ~flags:pkt.Packet.flags ~proto:pkt.Packet.flow.Five_tuple.proto
    ~wire_bytes:(Packet.wire_size pkt) ?decap_src ()

(* A delivered packet leaves for the net (TX) or the local VM (RX). *)
let deliver t vid ~dir out pre pkt =
  maybe_mirror t pre pkt;
  match dir with
  | Packet.Tx ->
    let outer_dst =
      match pre.Pre_action.peer_server with Some server -> server | None -> t.gateway
    in
    Packet.encap_vxlan pkt ~vni:pre.Pre_action.vni ~outer_src:t.underlay_ip ~outer_dst;
    Pbatch.push out pkt
  | Packet.Rx -> deliver_local t vid pkt

(* One packet of a burst, as the classification pass leaves it for the
   commit. *)
type slot = { pkt : Packet.t; key : Flow_key.t; res : resolution; decap_src : Ipv4.t option }

(* The resolution of [key]'s group among the slots so far (newest first). *)
let rec group_of key = function
  | [] -> None
  | s :: rest -> if Flow_key.equal s.key key then Some s.res else group_of key rest

let commit t vid ~dir ~t0 out { pkt; key; res; decap_src } =
  match res with
  | Cached (pre, s) -> (
    trace_stage t pkt ~name:"fast_path" ~args:(dir_args dir) ~t0 ();
    let verdict, out_state = run_nf ~dir ?decap_src ~pre ~state:s.state pkt in
    (match out_state with
    | Nf.Keep -> touch_session t vid key
    | Nf.Init st | Nf.Update st ->
      ignore (store_session t vid key { s with state = Some st } : Admission.t));
    match verdict with
    | Nf.Deliver -> deliver t vid ~dir out pre pkt
    | Nf.Drop reason -> count_drop t reason)
  | Walked (pre, s, lookup) -> (
    trace_stage t pkt ~name:"slow_path" ~args:(dir_args dir) ~t0 ();
    if pkt.Packet.trace_id <> 0 then
      trace_detail t pkt ~name:"classification"
        ~args:[ ("lookup_cycles", string_of_int lookup) ]
        ~t0 ();
    let prior = Option.bind (find_session t vid key) (fun s -> s.state) in
    let verdict, out_state = run_nf ~dir ?decap_src ~pre ~state:prior pkt in
    let state =
      match out_state with Nf.Init st | Nf.Update st -> Some st | Nf.Keep -> prior
    in
    match (store_session t vid key { s with state }, verdict) with
    | Error _, _ -> count_drop t Nf.Table_full
    | Ok (), Nf.Deliver -> deliver t vid ~dir out pre pkt
    | Ok (), Nf.Drop reason -> count_drop t reason)
  | Unroutable -> count_drop t Nf.No_route

(* Commit the slots oldest first; the list is newest first. *)
let rec commit_all t vid ~dir ~t0 out = function
  | [] -> ()
  | s :: older ->
    commit_all t vid ~dir ~t0 out older;
    commit t vid ~dir ~t0 out s

(* Owns [batch].  RX packets arrive still encapsulated and are decapped
   here, each outer source kept for stateful decapsulation. *)
let local_batch t e ~dir batch =
  match e.ruleset with
  | None ->
    Stats.Counter.add (drop_counter t Nf.No_route) (Pbatch.length batch);
    Pbatch.recycle batch
  | Some rs ->
    let p = t.params in
    let generation = Ruleset.generation rs in
    let encap = match dir with Packet.Tx -> p.Params.encap_cycles | Packet.Rx -> 0 in
    let slots = ref [] and total = ref 0 in
    for i = 0 to Pbatch.length batch - 1 do
      let pkt = Pbatch.get batch i in
      let decap_src =
        match dir with
        | Packet.Tx -> None
        | Packet.Rx -> (
          match Packet.decap_vxlan pkt with Some v -> Some v.Packet.outer_src | None -> None)
      in
      let key = Flow_key.of_packet_fields ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow in
      let res =
        match group_of key !slots with
        | None -> resolve t e rs ~dir ~generation pkt key
        | Some r -> follow t e rs ~dir pkt r
      in
      slots := { pkt; key; res; decap_src } :: !slots;
      total :=
        !total
        + Params.packet_cycles p ~wire_bytes:(Packet.wire_size pkt)
        +
        match res with
        | Cached _ -> p.Params.fast_path_cycles + encap
        | Walked (_, _, lookup) -> lookup + p.Params.session_setup_cycles + encap
        | Unroutable -> failed_walk_cycles t rs
    done;
    let slots = !slots and vid = e.vnic.Vnic.id and t0 = Sim.now t.sim in
    let n = Pbatch.length batch in
    if n = 0 then Pbatch.recycle batch
    else if
      not
        (charge_batch t ~cycles:!total ~npkts:n (fun _sim ->
             (* The packets live on in [slots]; the batch is refilled with
                what leaves for the net. *)
             Pbatch.clear batch;
             commit_all t vid ~dir ~t0 batch slots;
             emit_batch t batch))
    then Pbatch.recycle batch

(* vNIC TX burst.  Owns [batch]. *)
let from_vnic_batch t vid batch =
  let n = Pbatch.length batch in
  Stats.Counter.add t.counters.tx_packets n;
  match entry t vid with
  | None ->
    Stats.Counter.add (drop_counter t Nf.No_vnic) n;
    Pbatch.recycle batch
  | Some e -> (
    (match e.rate_limit with
    | None -> ()
    | Some bucket ->
      (* In-order token draws, exactly as a packet-at-a-time burst. *)
      Pbatch.filter_in_place batch (fun pkt ->
          let ok =
            Token_bucket.take bucket ~now:(Sim.now t.sim) ~bytes:(Packet.wire_size pkt)
          in
          if not ok then count_drop t Nf.Rate_limited;
          ok));
    for i = 0 to Pbatch.length batch - 1 do
      trace_begin t (Pbatch.get batch i)
    done;
    match e.intercept with
    | Some { on_tx_batch = Some h; _ } -> h batch
    | Some i ->
      (* Single-packet interceptor: unroll, then the batch shell is
         spent. *)
      for k = 0 to Pbatch.length batch - 1 do
        let pkt = Pbatch.get batch k in
        match i.on_tx pkt with
        | `Handled -> ()
        | `Continue -> local_batch t e ~dir:Packet.Tx (Pbatch.singleton pkt)
      done;
      Pbatch.recycle batch
    | None -> local_batch t e ~dir:Packet.Tx batch)

let from_vm t vid pkt = from_vnic_batch t vid (Pbatch.singleton pkt)

let local_vnic t pkt =
  match
    Vnic.Addr.Table.find_opt t.by_addr
      { Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.dst }
  with
  | Some vnic -> entry t vnic.Vnic.id
  | None -> None

(* A decapped underlay packet for [local], the inner destination's vNIC
   entry on this server (if any), once the net hook has had its turn. *)
let rx_local t pkt ~outer local =
  match local with
  | Some e -> (
    let declined =
      match e.intercept with
      | Some i -> ( match i.on_rx pkt with `Handled -> false | `Continue -> true)
      | None -> true
    in
    if declined then begin
      (* The local path decaps for itself. *)
      pkt.Packet.vxlan <- outer;
      local_batch t e ~dir:Packet.Rx (Pbatch.singleton pkt)
    end)
  | None -> (
    match (t.net_hook, pkt.Packet.nsh) with
    | Some hook, None -> (
      match hook pkt ~outer with `Handled -> () | `Continue -> count_drop t Nf.No_vnic)
    | Some _, Some _ | None, _ -> count_drop t Nf.No_vnic)

(* One underlay packet, outside any vectored run. *)
let from_net_one t pkt =
  let outer = Packet.decap_vxlan pkt in
  (* NSH-bearing packets are Nezha-internal workflow traffic: the net
     hook gets first refusal even when the inner destination is hosted
     locally — an FE may share a server with a session's peer, and its
     half of the split pipeline must still run. *)
  let hooked =
    match (t.net_hook, pkt.Packet.nsh) with
    | Some hook, Some _ -> ( match hook pkt ~outer with `Handled -> true | `Continue -> false)
    | Some _, None | None, _ -> false
  in
  if not hooked then rx_local t pkt ~outer (local_vnic t pkt)

let from_net t pkt =
  Stats.Counter.incr t.counters.rx_packets;
  from_net_one t pkt

(* The lanes [from_net_batch] keeps vectored: NSH workflow traffic for
   the batch net hook, and tenant traffic for one un-intercepted vNIC.
   Both lanes hand their runs over still encapsulated.  Any other packet
   goes on its own: NSH traffic offered to the single net hook first, or
   the rest with its destination vNIC already looked up. *)
type lane = Nsh_lane | Vnic_lane of vnic_entry | Hook_first | Local of vnic_entry option

let lane_of t pkt =
  match (t.net_hook_batch, t.net_hook, pkt.Packet.nsh) with
  | Some _, _, Some _ -> Nsh_lane
  | None, Some _, Some _ -> Hook_first
  | _, _, _ -> (
    match local_vnic t pkt with
    | Some ({ intercept = None; _ } as e) -> Vnic_lane e
    | local -> Local local)

let flush_lane t lane run =
  match lane with
  | Hook_first | Local _ -> Pbatch.recycle run (* these lanes never hold a run *)
  | Vnic_lane e -> local_batch t e ~dir:Packet.Rx run
  | Nsh_lane -> (
    (* The lane only opens when a batch hook is installed; if it vanished
       mid-burst, everything is leftover. *)
    let leftover = match t.net_hook_batch with Some h -> h run | None -> Some run in
    match leftover with
    | None -> ()
    | Some lb ->
      for i = 0 to Pbatch.length lb - 1 do
        from_net_one t (Pbatch.get lb i)
      done;
      Pbatch.recycle lb)

(* Net RX burst.  The pass keeps packets in arrival order and carves the
   burst into maximal consecutive runs of one lane; a run that spans
   the whole burst is handed over as the burst itself.  A packet that
   fits no lane ends the open run and takes [from_net_one], so side
   effects interleave exactly as a packet-at-a-time burst.  Owns
   [batch]. *)
let from_net_batch t batch =
  let n = Pbatch.length batch in
  Stats.Counter.add t.counters.rx_packets n;
  (* The open run is [start, i) in [lane]. *)
  let lane = ref Hook_first and start = ref 0 in
  for i = 0 to n - 1 do
    let pkt = Pbatch.get batch i in
    let next = lane_of t pkt in
    match (!lane, next) with
    | Nsh_lane, Nsh_lane -> ()
    | Vnic_lane e, Vnic_lane e' when e == e' -> ()
    | open_lane, _ -> (
      (match open_lane with
      | Nsh_lane | Vnic_lane _ -> flush_lane t open_lane (Pbatch.sub batch !start (i - !start))
      | Hook_first | Local _ -> ());
      lane := next;
      start := i;
      match next with
      | Hook_first -> from_net_one t pkt
      | Local local -> rx_local t pkt ~outer:(Packet.decap_vxlan pkt) local
      | Nsh_lane | Vnic_lane _ -> ())
  done;
  match !lane with
  | Hook_first | Local _ -> Pbatch.recycle batch
  | (Nsh_lane | Vnic_lane _) as l when !start = 0 -> flush_lane t l batch
  | l ->
    flush_lane t l (Pbatch.sub batch !start (n - !start));
    Pbatch.recycle batch

let set_flow_log_sink t sink = t.flow_log <- sink

let flow_records_emitted t = t.flow_records

let set_rate_limit t vid ~bps ~burst_bytes =
  match entry t vid with
  | None -> ()
  | Some e ->
    e.rate_limit <- Some (Token_bucket.create ~rate_bytes_per_s:(bps /. 8.0) ~burst_bytes)

let clear_rate_limit t vid =
  match entry t vid with None -> () | Some e -> e.rate_limit <- None

let vnic_slow_execs t vid =
  match entry t vid with None -> 0 | Some e -> Stats.Counter.value e.slow_execs

let vnic_classifier_backend t vid =
  Option.map Ruleset.classifier_backend (Option.bind (entry t vid) (fun e -> e.ruleset))

let vnic_memory_bytes t vid =
  match entry t vid with
  | None -> 0
  | Some e -> e.rule_bytes + e.residual_bytes + Flow_table.memory_bytes e.sessions

let utilization_report t ~cpu ~mem =
  cpu := Smartnic.utilization_since_last_sample t.nic;
  mem := Smartnic.mem_utilization t.nic

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = "vswitch/" ^ t.name ^ "/" in
  let counter name c = T.attach_counter reg ~name:(prefix ^ name) c in
  counter "rx_packets" t.counters.rx_packets;
  counter "tx_packets" t.counters.tx_packets;
  counter "delivered" t.counters.delivered;
  counter "forwarded" t.counters.forwarded;
  counter "slow_path_execs" t.counters.slow_path_execs;
  counter "fast_path_hits" t.counters.fast_path_hits;
  counter "sessions_created" t.counters.sessions_created;
  counter "notify_packets" t.counters.notify_packets;
  List.iter
    (fun reason ->
      T.attach_counter reg
        ~name:(prefix ^ "drops/" ^ Nf.drop_reason_to_string reason)
        ~labels:[ ("reason", Nf.drop_reason_to_string reason) ]
        (drop_counter t reason))
    Nf.all_drop_reasons;
  let sum_rulesets f =
    Vnic.Id_table.fold
      (fun _ e acc -> match e.ruleset with Some rs -> acc + f rs | None -> acc)
      t.vnics 0
  in
  T.register_counter reg ~name:(prefix ^ "megaflow_hits") (fun () ->
      sum_rulesets Ruleset.megaflow_hits);
  T.register_counter reg ~name:(prefix ^ "megaflow_misses") (fun () ->
      sum_rulesets Ruleset.megaflow_misses);
  T.register_gauge reg ~name:(prefix ^ "megaflow_entries") (fun () ->
      float_of_int (sum_rulesets Ruleset.megaflow_entries));
  T.register_gauge reg ~name:(prefix ^ "classifier_tuples") (fun () ->
      float_of_int (sum_rulesets Ruleset.classifier_tuples));
  T.register_gauge reg ~name:(prefix ^ "classifier_memory_bytes") (fun () ->
      float_of_int (sum_rulesets Ruleset.classifier_memory_bytes));
  t.telemetry <- Some reg;
  Vnic.Id_table.iter
    (fun vid e ->
      match e.ruleset with
      | Some rs -> register_vnic_telemetry t reg vid rs
      | None -> ())
    t.vnics;
  T.register_counter reg ~name:(prefix ^ "flow_records") (fun () -> t.flow_records);
  T.register_counter reg ~name:(prefix ^ "packets_mirrored") (fun () -> t.mirrored);
  T.register_gauge reg ~name:(prefix ^ "vnics") (fun () ->
      float_of_int (vnic_count t));
  T.register_gauge reg ~name:(prefix ^ "sessions") (fun () ->
      float_of_int (total_sessions t));
  Smartnic.register_telemetry t.nic reg
