open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch

type cached = { pre : Pre_action.t; generation : int }

type served = {
  vnic : Vnic.t;
  ruleset : Ruleset.t;
  mutable be : Ipv4.t;
  flows : cached Flow_table.t;
  mutable rule_bytes : int;
}

type counters = {
  remote_cycles : Stats.Counter.t;
  rule_lookups : Stats.Counter.t;
  fast_hits : Stats.Counter.t;
  notify_sent : Stats.Counter.t;
  rx_forwarded : Stats.Counter.t;
  tx_finalized : Stats.Counter.t;
  hop_acks_sent : Stats.Counter.t;
}

type t = {
  vs : Vswitch.t;
  served : served Vnic.Addr.Table.t;
  counters : counters;
}

let params t = Vswitch.params t.vs

let flow_entry_bytes t = (params t).Params.session_entry_overhead

let key_of pkt = Flow_key.of_packet_fields ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow

(* FE stage spans are the remote share of a flow's latency — the work that
   exists only because the vNIC is load-shared.  The [cached] detail says
   whether pre-actions came from the cached-flow table or a rule lookup. *)
let trace_stage t pkt ~name ~cached ~t0 =
  if pkt.Packet.trace_id <> 0 then
    Vswitch.trace_span t.vs pkt ~name ~component:("fe/" ^ Vswitch.name t.vs)
      ~site:Nezha_telemetry.Trace.Remote
      ~args:[ ("cached", if cached then "true" else "false") ]
      ~t0 ()

(* Resolve the pre-actions for a packet of a served vNIC.  [flow_tx] is
   the session tuple in TX orientation (source = the served vNIC). *)
let resolve_pre t s ~flow_tx ~key =
  let generation = Ruleset.generation s.ruleset in
  match Flow_table.find s.flows key with
  | Some c when c.generation = generation ->
    Stats.Counter.incr t.counters.fast_hits;
    ignore (Flow_table.touch s.flows ~now:(Sim.now (Vswitch.sim t.vs)) key : bool);
    Some (c.pre, (params t).Params.split_fast_path_cycles, false)
  | Some _ | None -> (
    Stats.Counter.incr t.counters.rule_lookups;
    match Vswitch.slow_path t.vs s.ruleset ~vpc:s.vnic.Vnic.vpc ~flow_tx with
    | None -> None
    | Some { Ruleset.pre; cycles } ->
      let entry = { pre; generation } in
      let bytes = flow_entry_bytes t in
      if Smartnic.mem_reserve (Vswitch.nic t.vs) bytes then begin
        match Flow_table.insert s.flows ~now:(Sim.now (Vswitch.sim t.vs)) key entry with
        | Ok () -> ()
        | Error _ -> Smartnic.mem_release (Vswitch.nic t.vs) bytes
      end;
      (* Creating the bidirectional cached flow is the expensive share of
         session setup, and it now happens here, not at the BE. *)
      Some (pre, cycles + (params t).Params.flow_cache_cycles, true))

let send_notify t s pkt pre =
  Stats.Counter.incr t.counters.notify_sent;
  Vswitch.count_notify t.vs;
  let notify =
    Packet.create ~vpc:pkt.Packet.vpc
      ~flow:(Five_tuple.reverse pkt.Packet.flow)
      ~direction:Packet.Rx ~flags:Packet.no_flags ()
  in
  Packet.set_nsh notify
    { Packet.empty_nsh with Packet.notify = true;
      carried_pre_actions = Some (Pre_action.encode pre) };
  Packet.encap_vxlan notify ~vni:(Ruleset.vni s.ruleset)
    ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:s.be;
  Vswitch.emit t.vs (Vswitch.To_net notify)

(* Hop-level ack for the BE's loss tracker: echo the sequence back on a
   bare control packet.  Sent regardless of the rule verdict — the ack
   acknowledges the hop, not the delivery. *)
let send_hop_ack t s pkt seq =
  Stats.Counter.incr t.counters.hop_acks_sent;
  let ack =
    Packet.create ~vpc:pkt.Packet.vpc
      ~flow:(Five_tuple.reverse pkt.Packet.flow)
      ~direction:Packet.Rx ~flags:Packet.no_flags ()
  in
  Packet.set_nsh ack { Packet.empty_nsh with Packet.hop_ack = Some seq };
  Packet.encap_vxlan ack ~vni:(Ruleset.vni s.ruleset)
    ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:s.be;
  Vswitch.emit t.vs (Vswitch.To_net ack)

(* What the classification pass decided for one packet of a burst.

   RX workflow (§3.2.1 blue flow): query pre-actions, piggyback them
   (encoded) and the preserved outer source, forward to the BE.

   TX workflow (§3.2.1 red flow): the packet carries the state; combine
   it with the pre-actions and finalize.

   [fresh] marks a rule lookup rather than a cached-flow hit. *)
type job =
  | To_be of {
      pkt : Packet.t;
      s : served;
      blob : bytes;
      fresh : bool;
      outer_src : Ipv4.t option;
    }
  | Finalize of {
      pkt : Packet.t;
      s : served;
      pre : Pre_action.t;
      fresh : bool;
      state : State.t;
      nsh : Packet.nsh;
    }
  | No_route

let commit t ~t0 out = function
  | No_route -> Vswitch.count_drop t.vs Nf.No_route
  | To_be { pkt; s; blob; fresh; outer_src } ->
    trace_stage t pkt ~name:"fe_rx" ~cached:(not fresh) ~t0;
    Stats.Counter.incr t.counters.rx_forwarded;
    Packet.set_nsh pkt
      { Packet.empty_nsh with Packet.carried_pre_actions = Some blob; orig_outer_src = outer_src };
    Packet.encap_vxlan pkt ~vni:(Ruleset.vni s.ruleset) ~outer_src:(Vswitch.underlay_ip t.vs)
      ~outer_dst:s.be;
    Pbatch.push out pkt
  | Finalize { pkt; s; pre; fresh; state; nsh } -> (
    trace_stage t pkt ~name:"fe_tx" ~cached:(not fresh) ~t0;
    (match nsh.Packet.hop_seq with Some seq -> send_hop_ack t s pkt seq | None -> ());
    (* Notify the BE when the rule lookup's rule-table-involved state
       disagrees with what the packet carried (§3.2.2): a notify fires
       only on fresh lookups, and only on an actual difference — both
       conditions keep the notify rate low. *)
    (if fresh then begin
       let be_has_stats = state.State.stats <> None in
       let rules_want_stats = pre.Pre_action.stats <> None in
       if be_has_stats <> rules_want_stats then send_notify t s pkt pre
     end);
    let verdict, _state_out =
      Nf.process ~pre ~state:(Some state) ~dir:Packet.Tx ~flags:pkt.Packet.flags
        ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt) ()
    in
    Stats.Counter.incr t.counters.tx_finalized;
    match verdict with
    | Nf.Deliver ->
      Vswitch.maybe_mirror t.vs pre pkt;
      let outer_dst =
        match pre.Pre_action.peer_server with
        | Some server -> server
        | None -> Vswitch.gateway t.vs
      in
      Packet.encap_vxlan pkt ~vni:pre.Pre_action.vni ~outer_src:(Vswitch.underlay_ip t.vs)
        ~outer_dst;
      Pbatch.push out pkt
    | Nf.Drop reason -> Vswitch.count_drop t.vs reason)

(* Commit the jobs oldest first; the list is newest first. *)
let rec commit_all t ~t0 out = function
  | [] -> ()
  | job :: older ->
    commit_all t ~t0 out older;
    commit t ~t0 out job

(* The FE's net-hook entry, vectored.  [batch] arrives still
   encapsulated; the classification pass reads the inner/NSH fields
   (visible without decapping), decides each packet's workflow, resolves
   pre-actions per packet — the cached-flow table itself memoizes a
   burst's flow-key groups, because the first packet of a group inserts
   synchronously and the rest hit — and decaps only the packets it
   keeps.  The still-encapsulated leftover returns to the caller.  One
   SmartNIC charge covers the burst; the commit replays the per-packet
   workflows in order and refills the batch with the outgoing packets,
   one burst for the sink. *)
let process_batch t batch =
  let p = params t in
  let jobs = ref [] and handled = ref 0 and total = ref 0 in
  let leftover = ref None in
  (* Members of a flow group carry physically-equal pre-actions, so a run
     of the same resolution shares one encoded blob. *)
  let last_pre = ref None and last_blob = ref Bytes.empty in
  for i = 0 to Pbatch.length batch - 1 do
    let pkt = Pbatch.get batch i in
    match
      Vnic.Addr.Table.find_opt t.served
        { Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.dst }
    with
    | Some s -> (
      let outer_src =
        match Packet.decap_vxlan pkt with Some v -> Some v.Packet.outer_src | None -> None
      in
      incr handled;
      match
        resolve_pre t s ~flow_tx:(Five_tuple.reverse pkt.Packet.flow) ~key:(key_of pkt)
      with
      | None ->
        jobs := No_route :: !jobs;
        total := !total + p.Params.table_base_cycles
      | Some (pre, lookup_cycles, fresh) ->
        (match !last_pre with
        | Some lp when lp == pre -> ()
        | Some _ | None ->
          last_pre := Some pre;
          last_blob := Pre_action.encode pre);
        jobs := To_be { pkt; s; blob = !last_blob; fresh; outer_src } :: !jobs;
        total :=
          !total
          + Params.packet_cycles p ~wire_bytes:(Packet.wire_size pkt)
          + lookup_cycles + p.Params.encap_cycles)
    | None -> (
      match
        ( Vnic.Addr.Table.find_opt t.served
            { Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.src },
          pkt.Packet.nsh )
      with
      | Some s, Some { Packet.carried_state = Some blob; _ } -> (
        ignore (Packet.decap_vxlan pkt : Packet.vxlan option);
        let nsh = match Packet.clear_nsh pkt with Some m -> m | None -> Packet.empty_nsh in
        match State.decode blob with
        | Error _ ->
          (* Malformed carried state: counted now, with no cycles
             charged. *)
          Vswitch.count_drop t.vs Nf.No_route
        | Ok state -> (
          incr handled;
          match resolve_pre t s ~flow_tx:pkt.Packet.flow ~key:(key_of pkt) with
          | None ->
            jobs := No_route :: !jobs;
            total := !total + p.Params.table_base_cycles
          | Some (pre, lookup_cycles, fresh) ->
            jobs := Finalize { pkt; s; pre; fresh; state; nsh } :: !jobs;
            let ack_cycles =
              match nsh.Packet.hop_seq with None -> 0 | Some _ -> p.Params.encap_cycles
            in
            total :=
              !total
              + Params.packet_cycles p ~wire_bytes:(Packet.wire_size pkt)
              + lookup_cycles + p.Params.encap_cycles + ack_cycles))
      | (Some _ | None), _ ->
        (* A packet from a served source whose NSH carries no state is
           not FE work: it goes back untouched, header included. *)
        let lb =
          match !leftover with
          | Some lb -> lb
          | None ->
            let lb = Pbatch.alloc () in
            leftover := Some lb;
            lb
        in
        Pbatch.push lb pkt)
  done;
  (if !handled = 0 then Pbatch.recycle batch
   else begin
     (* Counted apart so the controller can attribute this vSwitch's
        load to remote serving vs. local vNICs. *)
     Stats.Counter.add t.counters.remote_cycles !total;
     let jobs = !jobs and t0 = Sim.now (Vswitch.sim t.vs) in
     if
       not
         (Vswitch.charge_batch t.vs ~cycles:!total ~npkts:!handled (fun _ ->
              (* The kept packets live on in [jobs]. *)
              Pbatch.clear batch;
              commit_all t ~t0 batch jobs;
              Vswitch.emit_batch t.vs batch))
     then Pbatch.recycle batch
   end);
  !leftover

(* The single net hook: a batch of one.  The vSwitch hands the packet
   over decapsulated, so it is re-wrapped in its own outer header first;
   a declined packet is decapped again for the vSwitch to carry on. *)
let process t pkt ~outer =
  pkt.Packet.vxlan <- outer;
  match process_batch t (Pbatch.singleton pkt) with
  | None -> `Handled
  | Some leftover ->
    Pbatch.recycle leftover;
    ignore (Packet.decap_vxlan pkt : Packet.vxlan option);
    `Continue

let reattach t =
  Vswitch.set_net_hook t.vs (Some (fun pkt ~outer -> process t pkt ~outer));
  Vswitch.set_net_hook_batch t.vs (Some (fun batch -> process_batch t batch))

let install vs =
  let t =
    {
      vs;
      served = Vnic.Addr.Table.create 8;
      counters =
        {
          remote_cycles = Stats.Counter.create ();
          rule_lookups = Stats.Counter.create ();
          fast_hits = Stats.Counter.create ();
          notify_sent = Stats.Counter.create ();
          rx_forwarded = Stats.Counter.create ();
          tx_finalized = Stats.Counter.create ();
          hop_acks_sent = Stats.Counter.create ();
        };
    }
  in
  reattach t;
  (* Cached-flow aging pump for the served regions. *)
  let p = Vswitch.params vs in
  Sim.every (Vswitch.sim vs) ~period:(p.Params.flow_aging /. 4.0) (fun sim ->
      let now = Sim.now sim in
      Vnic.Addr.Table.iter
        (fun _ s ->
          ignore
            (Flow_table.expire s.flows ~now ~on_expire:(fun _ _ ->
                 Smartnic.mem_release (Vswitch.nic vs) (flow_entry_bytes t))
              : int))
        t.served;
      true);
  t

let vswitch t = t.vs

let release_served t s =
  Flow_table.iter s.flows (fun _ _ ->
      Smartnic.mem_release (Vswitch.nic t.vs) (flow_entry_bytes t));
  Flow_table.clear s.flows;
  Smartnic.mem_release (Vswitch.nic t.vs) s.rule_bytes

let serve t ~vnic ~ruleset ~be =
  let addr = Vnic.addr vnic in
  (match Vnic.Addr.Table.find_opt t.served addr with
  | Some old -> release_served t old
  | None -> ());
  Vnic.Addr.Table.remove t.served addr;
  let bytes = Ruleset.memory_bytes ruleset in
  if Smartnic.mem_reserve (Vswitch.nic t.vs) bytes then begin
    let p = params t in
    let s =
      {
        vnic;
        ruleset;
        be;
        flows =
          Flow_table.create ~entry_overhead:0
            ~value_bytes:(fun _ -> flow_entry_bytes t)
            ~default_aging:p.Params.flow_aging ();
        rule_bytes = bytes;
      }
    in
    Vnic.Addr.Table.replace t.served addr s;
    Admission.ok
  end
  else Admission.no_memory

let unserve t addr =
  match Vnic.Addr.Table.find_opt t.served addr with
  | None -> ()
  | Some s ->
    release_served t s;
    Vnic.Addr.Table.remove t.served addr

(* The hosting process died: every served blob (pushed rules + cached
   flows) was in process/NIC memory and is gone, so its reservations
   must be released *now* to keep the SmartNIC ledger honest.  The Fe
   object survives — [reattach] rewires the packet hooks the vSwitch
   wipe cleared, and the controller re-[serve]s on reconciliation. *)
let reset t =
  Vnic.Addr.Table.iter (fun _ s -> release_served t s) t.served;
  Vnic.Addr.Table.reset t.served

let serves t addr = Vnic.Addr.Table.mem t.served addr
let served_count t = Vnic.Addr.Table.length t.served
let served_vnics t = Vnic.Addr.Table.fold (fun a _ acc -> a :: acc) t.served []

let set_be t addr be =
  match Vnic.Addr.Table.find_opt t.served addr with
  | Some s -> s.be <- be
  | None -> ()

let ruleset_of t addr =
  Option.map (fun s -> s.ruleset) (Vnic.Addr.Table.find_opt t.served addr)

let invalidate_cached_flows t addr =
  match Vnic.Addr.Table.find_opt t.served addr with
  | None -> ()
  | Some s ->
    let current = Ruleset.generation s.ruleset in
    let victims = ref [] in
    Flow_table.iter s.flows (fun k c -> if c.generation <> current then victims := k :: !victims);
    List.iter
      (fun k ->
        if Flow_table.remove s.flows k then
          Smartnic.mem_release (Vswitch.nic t.vs) (flow_entry_bytes t))
      !victims

let counters t = t.counters

let cached_flow_count t =
  Vnic.Addr.Table.fold (fun _ s acc -> acc + Flow_table.length s.flows) t.served 0

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix = "fe/" ^ Vswitch.name t.vs ^ "/" in
  let counter name c = T.attach_counter reg ~name:(prefix ^ name) c in
  counter "remote_cycles" t.counters.remote_cycles;
  counter "rule_lookups" t.counters.rule_lookups;
  counter "fast_hits" t.counters.fast_hits;
  counter "notify_sent" t.counters.notify_sent;
  counter "rx_forwarded" t.counters.rx_forwarded;
  counter "tx_finalized" t.counters.tx_finalized;
  counter "hop_acks_sent" t.counters.hop_acks_sent;
  T.register_gauge reg ~name:(prefix ^ "cached_flows") (fun () ->
      float_of_int (cached_flow_count t));
  T.register_gauge reg ~name:(prefix ^ "served_vnics") (fun () ->
      float_of_int (served_count t))
