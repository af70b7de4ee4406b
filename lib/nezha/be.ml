open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_tables

type stage = Dual | Final

type lb_mode = Flow_level | Packet_level

(* Hop sequence numbers and FE addresses key the BE's own tables: a
   multiplicative mix instead of the generic [Hashtbl.hash]. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 32
end)

type counters = {
  tx_via_fe : Stats.Counter.t;
  rx_from_fe : Stats.Counter.t;
  notify_received : Stats.Counter.t;
  bounced : Stats.Counter.t;
  offload_tracked : Stats.Counter.t;
  offload_acked : Stats.Counter.t;
  offload_timeouts : Stats.Counter.t;
  offload_retx : Stats.Counter.t;
  offload_resteered : Stats.Counter.t;
  local_fallback : Stats.Counter.t;
  local_bypass : Stats.Counter.t;
  offload_dropped : Stats.Counter.t;
  offload_untracked : Stats.Counter.t;
}

(* One slow-path packet in flight to an FE, awaiting its hop-level ack.
   [clean] is a pristine (un-encapped, nsh-less) copy for retransmission;
   [nsh] the metadata to re-attach, hop_seq included. *)
type pending = {
  seq : int;
  clean : Packet.t;
  nsh : Packet.nsh;
  mutable last_fe : Ipv4.t;
  mutable retries : int;
  mutable tried : Ipv4.t list;
  mutable timer : Timer_wheel.timer;
  mutable sent_at : float;  (** when the last (re)transmission left, for tracing *)
}

type t = {
  vs : Vswitch.t;
  vnic : Vnic.t;
  vni : int;
  mutable fes : Ipv4.t array;
  mutable stage : stage;
  mutable lb_mode : lb_mode;
  mutable rr : int;
  pins : Ipv4.t Flow_key.Table.t;
  mutable fallback_ruleset : Ruleset.t option;
  mutable next_seq : int;
  outstanding : pending Int_table.t; (* by hop sequence number *)
  wheel : Timer_wheel.t; (* payloads are hop sequence numbers *)
  (* Consecutive hop timeouts per FE address; reset on any ack from it. *)
  suspects : int ref Int_table.t;
  (* Remote-hop latency (send → hop ack) — cumulative histogram for
     telemetry plus a bounded window drained by the controller's SLO
     tick.  [sent_at] is the last (re)transmission, so a retransmitted
     offload reports the latency of the attempt that succeeded. *)
  hop_hist : Stats.Histogram.t;
  mutable hop_window : float list;
  mutable hop_window_n : int;
  mutable closed : bool;
  counters : counters;
}

let hop_window_cap = 8192

let pin_key t flow =
  Flow_key.of_packet_fields ~vpc:t.vnic.Vnic.vpc ~flow

(* With no pins, skip building and hashing a pin key. *)
let fe_for t flow =
  match
    if Flow_key.Table.length t.pins = 0 then None
    else Flow_key.Table.find_opt t.pins (pin_key t flow)
  with
  | Some fe -> fe
  | None -> (
    match t.lb_mode with
    | Flow_level -> t.fes.(Five_tuple.session_hash flow mod Array.length t.fes)
    | Packet_level ->
      t.rr <- t.rr + 1;
      t.fes.(t.rr mod Array.length t.fes))

let key_of pkt = Flow_key.of_packet_fields ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow

let trace_stage t pkt ~name ?args ~t0 () =
  if pkt.Packet.trace_id <> 0 then
    Vswitch.trace_span t.vs pkt ~name ~component:("be/" ^ Vswitch.name t.vs) ?args ~t0 ()

(* The gap between the last (re)transmission and this timer (or teardown)
   firing is latency the flow really experienced; account it as a stage so
   a retransmitted trace still tiles its end-to-end interval. *)
let note_wait t pd =
  if Sim.now (Vswitch.sim t.vs) > pd.sent_at then
    trace_stage t pd.clean ~name:"retx_wait" ~t0:pd.sent_at ()

let fe_key fe = Int32.to_int (Ipv4.to_int32 fe)

let is_suspect t fe =
  match Int_table.find_opt t.suspects (fe_key fe) with
  | Some n -> !n >= Params.offload_suspect_after
  | None -> false

(* The FE set is never empty, so with no suspects (the clean path) the
   answer is [false] without a lookup. *)
let all_suspect t =
  Int_table.length t.suspects > 0 && Array.for_all (fun fe -> is_suspect t fe) t.fes

let bump_suspect t fe =
  match Int_table.find_opt t.suspects (fe_key fe) with
  | Some n -> incr n
  | None -> Int_table.replace t.suspects (fe_key fe) (ref 1)

(* The hash choice, steered around FEs currently suspected of being
   unreachable.  With no suspects this is exactly [fe_for] — the clean
   path is untouched. *)
let pick_fe t flow =
  let fe = fe_for t flow in
  if Int_table.length t.suspects = 0 || not (is_suspect t fe) then fe
  else begin
    let n = Array.length t.fes in
    let h = Five_tuple.session_hash flow mod n in
    let rec probe i =
      if i >= n then fe
      else begin
        let cand = t.fes.((h + i) mod n) in
        if is_suspect t cand then probe (i + 1) else cand
      end
    in
    probe 0
  end

(* State maintenance on TX packets happens at the BE (the FE cannot write
   state back).  Connection-tracking advances; statistics counters, when
   the notify machinery has armed them, accumulate. *)
let step_state_tx st ~flags ~proto ~wire_bytes =
  let tcp' = Nf.advance_tcp st.State.tcp ~flags ~proto in
  let stats' =
    match st.State.stats with
    | None -> None
    | Some s -> Some { State.packets = s.State.packets + 1; bytes = s.State.bytes + wire_bytes }
  in
  { st with State.tcp = tcp'; stats = stats' }

(* Session access goes through the vNIC's table, looked up once per
   continuation ([None] once the vNIC is gone, when reads see no session
   and writes are dropped), and a handle found in it. *)
let sessions t = Vswitch.sessions t.vs t.vnic.Vnic.id

let session_entry ss ?handle key =
  match ss with Some ss -> Vswitch.session_entry ss ?handle key | None -> None

(* A handle from an earlier look at the vNIC's table, if that table is
   still the vNIC's: a vNIC removed and added again has a new one. *)
let carried ~from ss handle =
  match (from, ss) with Some a, Some b when a == b -> handle | _ -> None

let store_state t ss ?handle key st =
  match ss with
  | Some ss ->
    ignore
      (Vswitch.store_session t.vs ss ?handle key
         { Vswitch.pre = None; state = Some st; generation = 0 }
        : Admission.t)
  | None -> ()

let touch_state t ss ?handle key =
  match ss with Some ss -> Vswitch.touch_session t.vs ss ?handle key | None -> ()

(* The state a session handle holds, if any. *)
let state_of ss handle =
  match (ss, handle) with
  | Some ss, Some h -> (Vswitch.session_value ss h).Vswitch.state
  | _, _ -> None

let send_to_fe t pkt ~fe ~nsh =
  Packet.set_nsh pkt nsh;
  Packet.encap_vxlan pkt ~vni:t.vni ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst:fe;
  Vswitch.emit t.vs (Vswitch.To_net pkt)

(* The pre-Nezha degraded mode: run the rule tables here.  During the
   dual stage the vSwitch still holds them; in the final stage we use the
   ruleset the controller saved aside at offload time. *)
let local_ruleset t =
  match Vswitch.ruleset t.vs t.vnic.Vnic.id with
  | Some _ as rs -> rs
  | None -> t.fallback_ruleset

(* Finalize one TX packet through the local slow path.  Returns [false]
   when no ruleset is available at all (true blackhole risk — the caller
   records the drop). *)
let local_slow_path t pkt =
  let t0 = Sim.now (Vswitch.sim t.vs) in
  match local_ruleset t with
  | None -> false
  | Some rs -> (
    match Vswitch.slow_path t.vs rs ~vpc:t.vnic.Vnic.vpc ~flow_tx:pkt.Packet.flow with
    | None ->
      Vswitch.charge t.vs ~cycles:Params.table_base_cycles (fun _ ->
          Vswitch.count_drop t.vs Nf.No_route);
      true
    | Some { Ruleset.pre; cycles } ->
      let cycles =
        cycles
        + Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt)
        + Params.encap_cycles
      in
      Vswitch.charge t.vs ~cycles (fun _ ->
          trace_stage t pkt ~name:"local_slow_path" ~t0 ();
          let verdict, _state_out =
            Nf.process ~pre ~state:None ~dir:Packet.Tx ~flags:pkt.Packet.flags
              ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt) ()
          in
          match verdict with
          | Nf.Deliver ->
            Vswitch.maybe_mirror t.vs pre pkt;
            let outer_dst =
              match pre.Pre_action.peer_server with
              | Some server -> server
              | None -> Vswitch.gateway t.vs
            in
            Packet.encap_vxlan pkt ~vni:pre.Pre_action.vni
              ~outer_src:(Vswitch.underlay_ip t.vs) ~outer_dst;
            Vswitch.emit t.vs (Vswitch.To_net pkt)
          | Nf.Drop reason -> Vswitch.count_drop t.vs reason);
      true)

(* The RX twin of [local_slow_path]: resolve pre-actions from the local
   (or fallback) tables, combine with the session state, deliver to the
   VM — what an FE would have done for a bounced packet. *)
let local_rx_slow_path t pkt =
  let t0 = Sim.now (Vswitch.sim t.vs) in
  match local_ruleset t with
  | None -> false
  | Some rs -> (
    match
      Vswitch.slow_path t.vs rs ~vpc:t.vnic.Vnic.vpc
        ~flow_tx:(Five_tuple.reverse pkt.Packet.flow)
    with
    | None ->
      Vswitch.charge t.vs ~cycles:Params.table_base_cycles (fun _ ->
          Vswitch.count_drop t.vs Nf.No_route);
      true
    | Some { Ruleset.pre; cycles } ->
      let key = key_of pkt in
      let cycles = cycles + Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt) in
      Vswitch.charge t.vs ~cycles (fun _ ->
          trace_stage t pkt ~name:"local_rx_slow_path" ~t0 ();
          let ss = sessions t in
          let handle = session_entry ss key in
          let prior = state_of ss handle in
          let verdict, out =
            Nf.process ~pre ~state:prior ~dir:Packet.Rx ~flags:pkt.Packet.flags
              ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt) ()
          in
          (match out with
          | Nf.Init st | Nf.Update st -> store_state t ss ?handle key st
          | Nf.Keep -> touch_state t ss ?handle key);
          match verdict with
          | Nf.Deliver ->
            ignore (Packet.clear_nsh pkt : Packet.nsh option);
            Vswitch.deliver_local t.vs t.vnic.Vnic.id pkt
          | Nf.Drop reason -> Vswitch.count_drop t.vs reason);
      true)

(* Retries exhausted (or nowhere left to steer): degrade gracefully. *)
let give_up t pd =
  if local_slow_path t (Packet.copy pd.clean) then
    Stats.Counter.incr t.counters.local_fallback
  else begin
    Stats.Counter.incr t.counters.offload_dropped;
    Vswitch.count_drop t.vs Nf.Offload_timeout
  end

let resend t pd fe =
  let t0 = Sim.now (Vswitch.sim t.vs) in
  let pkt = Packet.copy pd.clean in
  Vswitch.charge t.vs ~cycles:Params.encap_cycles (fun sim ->
      trace_stage t pkt ~name:"be_retx"
        ~args:[ ("retries", string_of_int pd.retries) ]
        ~t0 ();
      pd.sent_at <- Sim.now sim;
      send_to_fe t pkt ~fe ~nsh:pd.nsh)

let arm_timer t pd =
  let now = Sim.now (Vswitch.sim t.vs) in
  pd.timer <- Timer_wheel.add t.wheel ~now ~deadline:(now +. Params.offload_retx_timeout) pd.seq

let on_timeout t seq =
  match Int_table.find_opt t.outstanding seq with
  | None -> () (* acked since the wheel slot was written *)
  | Some pd ->
    Stats.Counter.incr t.counters.offload_timeouts;
    note_wait t pd;
    bump_suspect t pd.last_fe;
    let tried = pd.last_fe :: pd.tried in
    let untried =
      Array.to_list t.fes
      |> List.filter (fun fe -> not (List.exists (Ipv4.equal fe) tried))
    in
    (* Re-steer preference: an untried FE we still trust, then any
       untried one, then — when the set is exhausted but the last FE is
       not yet a suspect *and still administratively present* — the
       same FE again (a lossy link, not a dead box).  The membership
       check matters: scale_in/fallback may have removed [last_fe] from
       [t.fes] while this packet was in flight, and a retransmission
       against a decommissioned FE is a guaranteed blackhole. *)
    let candidate =
      match List.filter (fun fe -> not (is_suspect t fe)) untried with
      | fe :: _ -> Some fe
      | [] -> (
        match untried with
        | fe :: _ -> Some fe
        | [] ->
          if is_suspect t pd.last_fe || not (Array.exists (Ipv4.equal pd.last_fe) t.fes)
          then None
          else Some pd.last_fe)
    in
    match candidate with
    | Some fe when pd.retries < Params.offload_retx_max ->
      pd.retries <- pd.retries + 1;
      pd.tried <- tried;
      if not (Ipv4.equal fe pd.last_fe) then
        Stats.Counter.incr t.counters.offload_resteered;
      pd.last_fe <- fe;
      Stats.Counter.incr t.counters.offload_retx;
      arm_timer t pd;
      resend t pd fe
    | Some _ | None ->
      Int_table.remove t.outstanding seq;
      give_up t pd

let handle_ack t nsh =
  match nsh.Packet.hop_ack with
  | None -> ()
  | Some seq -> (
    match Int_table.find_opt t.outstanding seq with
    | None -> () (* duplicate or post-give-up ack *)
    | Some pd ->
      Int_table.remove t.outstanding seq;
      Timer_wheel.cancel t.wheel pd.timer;
      if Int_table.length t.suspects > 0 then Int_table.remove t.suspects (fe_key pd.last_fe);
      let lat = Sim.now (Vswitch.sim t.vs) -. pd.sent_at in
      Stats.Histogram.record t.hop_hist lat;
      if t.hop_window_n < hop_window_cap then begin
        t.hop_window <- lat :: t.hop_window;
        t.hop_window_n <- t.hop_window_n + 1
      end;
      Stats.Counter.incr t.counters.offload_acked)

(* TX workflow: one SmartNIC submission covers the whole burst
   (freshness — hence the state-init surcharge — is sampled per packet
   at submit time), and the continuation steps each packet's state in
   order, collecting the FE-bound packets into one outgoing burst.  A
   single packet is a burst of one.  Owns [batch]. *)
let handle_tx_batch t batch =
  let n = Pbatch.length batch in
  if n = 0 then Pbatch.recycle batch
  else begin
    let t0 = Sim.now (Vswitch.sim t.vs) in
    let cycles = ref 0 in
    (* Each packet's session handle, found once here for the freshness
       charge and kept for the commit. *)
    let ss0 = sessions t in
    let handles = Array.make n None in
    for i = 0 to n - 1 do
      let pkt = Pbatch.get batch i in
      let handle = session_entry ss0 (key_of pkt) in
      handles.(i) <- handle;
      let fresh = Option.is_none handle in
      cycles :=
        !cycles
        + Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt)
        + Params.split_fast_path_cycles + Params.encap_cycles
        + if fresh then Params.state_init_cycles else 0
    done;
    let accepted =
      Vswitch.charge_batch t.vs ~cycles:!cycles ~npkts:n (fun sim ->
          (* The batch keeps the FE-bound packets, in order. *)
          let i = ref 0 and ss = sessions t in
          Pbatch.filter_in_place batch (fun pkt ->
              trace_stage t pkt ~name:"be_tx" ~t0 ();
              let key = key_of pkt in
              let handle = session_entry ss ?handle:(carried ~from:ss0 ss handles.(!i)) key in
              incr i;
              let flags = pkt.Packet.flags and proto = pkt.Packet.flow.Five_tuple.proto in
              let st =
                match state_of ss handle with
                | Some st -> step_state_tx st ~flags ~proto ~wire_bytes:(Packet.wire_size pkt)
                | None ->
                  State.init ~first_dir:Packet.Tx ?tcp:(Nf.tcp_phase_of_flags flags ~proto) ()
              in
              store_state t ss ?handle key st;
              if all_suspect t && local_ruleset t <> None then begin
                (* Every FE looks unreachable: skip the hop entirely rather
                   than queue a retransmission dance per packet. *)
                Stats.Counter.incr t.counters.local_bypass;
                ignore (local_slow_path t pkt : bool);
                false
              end
              else begin
                Stats.Counter.incr t.counters.tx_via_fe;
                let base_nsh =
                  { Packet.empty_nsh with Packet.carried_state = Some (State.encode st) }
                in
                let fe = pick_fe t pkt.Packet.flow in
                let nsh =
                  if Int_table.length t.outstanding < Params.offload_track_capacity
                  then begin
                    let seq = t.next_seq in
                    t.next_seq <- t.next_seq + 1;
                    let nsh = { base_nsh with Packet.hop_seq = Some seq } in
                    let pd =
                      {
                        seq;
                        clean = Packet.copy pkt;
                        nsh;
                        last_fe = fe;
                        retries = 0;
                        tried = [];
                        timer = Timer_wheel.none;
                        sent_at = Sim.now sim;
                      }
                    in
                    Int_table.replace t.outstanding seq pd;
                    arm_timer t pd;
                    Stats.Counter.incr t.counters.offload_tracked;
                    nsh
                  end
                  else begin
                    Stats.Counter.incr t.counters.offload_untracked;
                    base_nsh
                  end
                in
                Packet.set_nsh pkt nsh;
                Packet.encap_vxlan pkt ~vni:t.vni ~outer_src:(Vswitch.underlay_ip t.vs)
                  ~outer_dst:fe;
                true
              end);
          Vswitch.emit_batch t.vs batch)
    in
    if not accepted then Pbatch.recycle batch
  end

let handle_notify t pkt nsh =
  Stats.Counter.incr t.counters.notify_received;
  Vswitch.charge t.vs ~cycles:Params.state_update_cycles (fun _ ->
      match Option.map Pre_action.decode nsh.Packet.carried_pre_actions with
      | Some (Ok pre) -> (
        let key = key_of pkt and ss = sessions t in
        let handle = session_entry ss key in
        match state_of ss handle with
        | Some st ->
          (* Arm or disarm the statistics counters per the rule-table
             lookup the FE just performed (§3.2.2). *)
          let stats' =
            match (pre.Pre_action.stats, st.State.stats) with
            | Some _, Some s -> Some s
            | Some _, None -> Some { State.packets = 0; bytes = 0 }
            | None, _ -> None
          in
          store_state t ss ?handle key { st with State.stats = stats' }
        | None -> ())
      | Some (Error _) | None -> ())

let handle_rx_with_pre t pkt nsh pre_blob =
  let t0 = Sim.now (Vswitch.sim t.vs) in
  match Pre_action.decode pre_blob with
  | Error _ -> Vswitch.count_drop t.vs Nf.No_route
  | Ok pre ->
    let key = key_of pkt and ss0 = sessions t in
    let handle = session_entry ss0 key in
    let fresh = Option.is_none handle in
    let cycles =
      Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt)
      + Params.split_fast_path_cycles
      + if fresh then Params.state_init_cycles else 0
    in
    Vswitch.charge t.vs ~cycles (fun _sim ->
        trace_stage t pkt ~name:"be_rx_finalize" ~t0 ();
        let ss = sessions t in
        let handle = session_entry ss ?handle:(carried ~from:ss0 ss handle) key in
        let prior = state_of ss handle in
        let verdict, out =
          Nf.process ~pre ~state:prior ~dir:Packet.Rx ~flags:pkt.Packet.flags
            ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt)
            ?decap_src:nsh.Packet.orig_outer_src ()
        in
        (match out with
        | Nf.Init st | Nf.Update st -> store_state t ss ?handle key st
        | Nf.Keep -> touch_state t ss ?handle key);
        Stats.Counter.incr t.counters.rx_from_fe;
        match verdict with
        | Nf.Deliver ->
          ignore (Packet.clear_nsh pkt : Packet.nsh option);
          Vswitch.deliver_local t.vs t.vnic.Vnic.id pkt
        | Nf.Drop reason -> Vswitch.count_drop t.vs reason)

let handle_rx_bare t pkt =
  match t.stage with
  | Dual -> `Continue
  | Final ->
    if all_suspect t && local_rx_slow_path t pkt then begin
      (* Every FE looks unreachable: a bounce would blackhole.  The
         local tables just served it instead. *)
      Stats.Counter.incr t.counters.local_bypass;
      `Handled
    end
    else begin
      (* A sender with a stale vNIC-server entry reached us directly after
         the retention window: bounce the packet through an FE. *)
      Stats.Counter.incr t.counters.bounced;
      let t0 = Sim.now (Vswitch.sim t.vs) in
      Vswitch.charge t.vs ~cycles:Params.encap_cycles (fun _ ->
          trace_stage t pkt ~name:"be_bounce" ~t0 ();
          let fe = pick_fe t pkt.Packet.flow in
          Packet.encap_vxlan pkt ~vni:t.vni ~outer_src:(Vswitch.underlay_ip t.vs)
            ~outer_dst:fe;
          Vswitch.emit t.vs (Vswitch.To_net pkt));
      `Handled
    end

(* Classify one RX packet addressed to the offloaded vNIC: hop-level
   ack, stats notify, FE-finalized traffic carrying pre-actions, or bare
   (stale-sender) traffic.  [`Continue] means the caller should run the
   traditional local RX path (dual stage only). *)
let rx_dispatch t pkt =
  match Packet.clear_nsh pkt with
  | Some nsh when nsh.Packet.hop_ack <> None ->
    handle_ack t nsh;
    `Handled
  | Some nsh when nsh.Packet.notify ->
    handle_notify t pkt nsh;
    `Handled
  | Some nsh -> (
    match nsh.Packet.carried_pre_actions with
    | Some blob ->
      handle_rx_with_pre t pkt nsh blob;
      `Handled
    | None ->
      (* Metadata without pre-actions: treat as bare. *)
      handle_rx_bare t pkt)
  | None -> handle_rx_bare t pkt

(* The BE intercept as one entry point; [ctx] is the packet direction. *)
module Ingress_impl = struct
  let ingest t ~ctx pkt =
    match ctx with
    | Packet.Tx ->
      handle_tx_batch t (Pbatch.singleton pkt);
      `Handled
    | Packet.Rx -> rx_dispatch t pkt
end

let install ~vs ~vnic ~vni ~fes ?fallback_ruleset () =
  if Array.length fes = 0 then invalid_arg "Be.install: empty FE set";
  let t =
    {
      vs;
      vnic;
      vni;
      fes = Array.copy fes;
      stage = Dual;
      lb_mode = Flow_level;
      rr = 0;
      pins = Flow_key.Table.create 4;
      fallback_ruleset;
      next_seq = 0;
      outstanding = Int_table.create 64;
      wheel =
        Timer_wheel.create ~tick:(Params.offload_retx_timeout /. 4.0) ~slots:64;
      suspects = Int_table.create 4;
      hop_hist = Stats.Histogram.create ();
      hop_window = [];
      hop_window_n = 0;
      closed = false;
      counters =
        {
          tx_via_fe = Stats.Counter.create ();
          rx_from_fe = Stats.Counter.create ();
          notify_received = Stats.Counter.create ();
          bounced = Stats.Counter.create ();
          offload_tracked = Stats.Counter.create ();
          offload_acked = Stats.Counter.create ();
          offload_timeouts = Stats.Counter.create ();
          offload_retx = Stats.Counter.create ();
          offload_resteered = Stats.Counter.create ();
          local_fallback = Stats.Counter.create ();
          local_bypass = Stats.Counter.create ();
          offload_dropped = Stats.Counter.create ();
          offload_untracked = Stats.Counter.create ();
        };
    }
  in
  (* Retransmission-timer pump; dies with the intercept. *)
  Sim.every (Vswitch.sim vs) ~period:(Params.offload_retx_timeout /. 4.0) (fun sim ->
      ignore (Timer_wheel.advance t.wheel ~now:(Sim.now sim) (on_timeout t) : int);
      not t.closed);
  Vswitch.set_intercept vs vnic.Vnic.id
    (Some
       {
         Vswitch.on_tx = Ingress_impl.ingest t ~ctx:Packet.Tx;
         on_rx = Ingress_impl.ingest t ~ctx:Packet.Rx;
         on_tx_batch = Some (fun batch -> handle_tx_batch t batch);
       });
  t

let uninstall t =
  t.closed <- true;
  Vswitch.set_intercept t.vs t.vnic.Vnic.id None;
  (* Resolve anything still in flight through the local path so an
     offload torn down mid-chaos never strands packets. *)
  let pds = Int_table.fold (fun _ pd acc -> pd :: acc) t.outstanding [] in
  Int_table.reset t.outstanding;
  List.iter
    (fun pd ->
      Timer_wheel.cancel t.wheel pd.timer;
      note_wait t pd;
      give_up t pd)
    (List.sort (fun a b -> compare a.seq b.seq) pds)

(* The hosting process died.  Unlike [uninstall] nothing is resolved
   through the local path — the in-flight packets were already lost
   with the NIC, so they move straight from outstanding to dropped
   (keeping the conservation invariant tracked = acked + fallback +
   dropped + outstanding intact across the crash).  This instance is
   dead for good; reconciliation installs a fresh [install]. *)
let crash t =
  t.closed <- true;
  let n = Int_table.length t.outstanding in
  Int_table.iter (fun _ pd -> Timer_wheel.cancel t.wheel pd.timer) t.outstanding;
  Int_table.reset t.outstanding;
  Int_table.reset t.suspects;
  Flow_key.Table.reset t.pins;
  Stats.Counter.add t.counters.offload_dropped n

let closed t = t.closed
let vnic t = t.vnic
let vni t = t.vni
let fallback_ruleset t = t.fallback_ruleset
let stage t = t.stage
let set_stage t s = t.stage <- s

let fes t = Array.copy t.fes

let set_fes t fes =
  if Array.length fes = 0 then invalid_arg "Be.set_fes: empty FE set";
  t.fes <- Array.copy fes

let remove_fe t fe =
  let src = t.fes in
  let keep = ref 0 in
  Array.iter (fun f -> if not (Ipv4.equal f fe) then incr keep) src;
  (* Never leave the BE without an FE (mirrors set_fes); also skip the
     copy when nothing matched. *)
  if !keep > 0 && !keep < Array.length src then begin
    let dst = Array.make !keep src.(0) in
    let i = ref 0 in
    Array.iter
      (fun f ->
        if not (Ipv4.equal f fe) then begin
          dst.(!i) <- f;
          incr i
        end)
      src;
    t.fes <- dst
  end

let set_lb_mode t m = t.lb_mode <- m

let set_fallback_ruleset t rs = t.fallback_ruleset <- rs

let pin_flow t flow fe = Flow_key.Table.replace t.pins (pin_key t flow) fe
let unpin_flow t flow = Flow_key.Table.remove t.pins (pin_key t flow)
let pinned_count t = Flow_key.Table.length t.pins

let outstanding t = Int_table.length t.outstanding

let drain_hop_latencies t =
  let samples = t.hop_window in
  t.hop_window <- [];
  t.hop_window_n <- 0;
  samples

let counters t = t.counters

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  let prefix =
    Printf.sprintf "be/%s/%d/" (Vswitch.name t.vs) (t.vnic.Vnic.id :> int)
  in
  let counter name c = T.attach_counter reg ~name:(prefix ^ name) c in
  counter "tx_via_fe" t.counters.tx_via_fe;
  counter "rx_from_fe" t.counters.rx_from_fe;
  counter "notify_received" t.counters.notify_received;
  counter "bounced" t.counters.bounced;
  counter "offload_tracked" t.counters.offload_tracked;
  counter "offload_acked" t.counters.offload_acked;
  counter "offload_timeouts" t.counters.offload_timeouts;
  counter "offload_retx" t.counters.offload_retx;
  counter "offload_resteered" t.counters.offload_resteered;
  counter "local_fallback" t.counters.local_fallback;
  counter "local_bypass" t.counters.local_bypass;
  counter "offload_dropped" t.counters.offload_dropped;
  counter "offload_untracked" t.counters.offload_untracked;
  T.register_gauge reg ~name:(prefix ^ "pinned_flows") (fun () ->
      float_of_int (pinned_count t));
  T.register_gauge reg ~name:(prefix ^ "outstanding_offloads") (fun () ->
      float_of_int (outstanding t));
  T.register_histogram reg ~name:(prefix ^ "hop_latency_s") t.hop_hist
