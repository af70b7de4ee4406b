open Nezha_net
open Nezha_tables

type drop_reason =
  | Acl_denied
  | Unsolicited
  | No_route
  | No_vnic
  | Table_full
  | Queue_overflow
  | Rate_limited
  | Nic_crashed
  | Vm_overload
  | Offload_timeout

let all_drop_reasons =
  [
    Acl_denied;
    Unsolicited;
    No_route;
    No_vnic;
    Table_full;
    Queue_overflow;
    Rate_limited;
    Nic_crashed;
    Vm_overload;
    Offload_timeout;
  ]

let drop_reason_count = List.length all_drop_reasons

let drop_reason_index = function
  | Acl_denied -> 0
  | Unsolicited -> 1
  | No_route -> 2
  | No_vnic -> 3
  | Table_full -> 4
  | Queue_overflow -> 5
  | Rate_limited -> 6
  | Nic_crashed -> 7
  | Vm_overload -> 8
  | Offload_timeout -> 9

let drop_reason_to_string = function
  | Acl_denied -> "acl-denied"
  | Unsolicited -> "unsolicited"
  | No_route -> "no-route"
  | No_vnic -> "no-vnic"
  | Table_full -> "table-full"
  | Queue_overflow -> "queue-overflow"
  | Rate_limited -> "rate-limited"
  | Nic_crashed -> "nic-crashed"
  | Vm_overload -> "vm-overload"
  | Offload_timeout -> "offload-timeout"

let pp_drop_reason ppf r = Format.pp_print_string ppf (drop_reason_to_string r)

type verdict = Deliver | Drop of drop_reason

let pp_verdict ppf = function
  | Deliver -> Format.pp_print_string ppf "deliver"
  | Drop r -> Format.fprintf ppf "drop(%a)" pp_drop_reason r

type state_out = Init of State.t | Update of State.t | Keep

let tcp_phase_of_flags (flags : Packet.tcp_flags) ~proto =
  match proto with
  | Five_tuple.Tcp ->
    if flags.Packet.rst || flags.Packet.fin then Some State.Closing
    else if flags.Packet.syn then Some State.Establishing
    else Some State.Established
  | Five_tuple.Udp | Five_tuple.Icmp -> None

let stats_init (spec : Pre_action.stats_spec) ~wire_bytes =
  {
    State.packets = (if spec.Pre_action.count_packets then 1 else 0);
    bytes = (if spec.Pre_action.count_bytes then wire_bytes else 0);
  }

let initial_state ~dir ~flags ~proto ~(pre : Pre_action.t) ?decap_src () =
  {
    State.first_dir = dir;
    tcp = tcp_phase_of_flags flags ~proto;
    decap_src = (if pre.Pre_action.stateful_decap then decap_src else None);
    stats =
      (match pre.Pre_action.stats with
      | Some spec -> Some (stats_init spec ~wire_bytes:0)
      | None -> None);
  }

let acl_for_dir (pre : Pre_action.t) = function
  | Packet.Tx -> pre.Pre_action.acl_tx
  | Packet.Rx -> pre.Pre_action.acl_rx

(* Stateful ACL (§5.1): a Deny pre-action is overruled for return
   traffic — packets flowing against the session's first direction. *)
let acl_verdict ~pre ~(state : State.t) ~dir =
  match acl_for_dir pre dir with
  | Acl.Permit -> Deliver
  | Acl.Deny ->
    if state.State.first_dir <> dir then Deliver
    else Drop (match dir with Packet.Rx -> Unsolicited | Packet.Tx -> Acl_denied)

let advance_tcp current ~flags ~proto =
  match tcp_phase_of_flags flags ~proto with
  | None -> current
  | Some State.Closing -> Some State.Closing
  | Some State.Establishing -> current (* retransmitted SYN does not regress *)
  | Some State.Established -> (
    match current with
    | Some State.Closing -> Some State.Closing
    | Some State.Establishing | Some State.Established | None -> Some State.Established)

let update_stats (pre : Pre_action.t) stats ~wire_bytes =
  match (pre.Pre_action.stats, stats) with
  | None, _ -> stats
  | Some spec, None -> Some (stats_init spec ~wire_bytes)
  | Some spec, Some s ->
    Some
      {
        State.packets = (s.State.packets + if spec.Pre_action.count_packets then 1 else 0);
        bytes = (s.State.bytes + if spec.Pre_action.count_bytes then wire_bytes else 0);
      }

let process ~pre ~state ~dir ~flags ~proto ~wire_bytes ?decap_src () =
  match state with
  | None ->
    let st = initial_state ~dir ~flags ~proto ~pre ?decap_src () in
    let st = { st with State.stats = update_stats pre None ~wire_bytes } in
    let verdict = acl_verdict ~pre ~state:st ~dir in
    (verdict, Init st)
  | Some st ->
    let verdict = acl_verdict ~pre ~state:st ~dir in
    let tcp' = advance_tcp st.State.tcp ~flags ~proto in
    let stats' = update_stats pre st.State.stats ~wire_bytes in
    let decap' =
      match (st.State.decap_src, decap_src, pre.Pre_action.stateful_decap) with
      | None, Some s, true -> Some s
      | kept, _, _ -> kept
    in
    if
      State.equal_tcp st.State.tcp tcp'
      && State.equal_stats st.State.stats stats'
      && State.equal_decap st.State.decap_src decap'
    then (verdict, Keep)
    else (verdict, Update { st with State.tcp = tcp'; stats = stats'; decap_src = decap' })
