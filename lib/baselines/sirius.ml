open Nezha_engine
open Nezha_net
open Nezha_tables
open Nezha_vswitch
open Nezha_fabric

type pair = { primary : Topology.server_id; backup : Topology.server_id }

type entry = { pre : Pre_action.t; state : State.t option }

type served = {
  vnic : Vnic.t;
  vni : int;
  host : Topology.server_id;
  (* One rule-table replica per card, one session region per pair
     (sessions live on the primary, replicated in-line to the backup). *)
  replicas : (Topology.server_id, Ruleset.t) Hashtbl.t;
  sessions : (int, entry Flow_table.t) Hashtbl.t; (* pair index -> table *)
}

type t = {
  fabric : Fabric.t;
  pairs : pair array;
  buckets : int array; (* bucket -> pair index *)
  served : served Vnic.Addr.Table.t;
  dpu_params : Params.t;
  mutable connections : int;
  mutable pingpongs : int;
  mutable transfers : int;
  mutable cycles : int;
}

(* Flows hash into 64 buckets, each assigned to one card pair. *)
let n_buckets = 64

let rec create ~fabric ~cards ?(dpu_speedup = 4.0) () =
  let n = List.length cards in
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Sirius.create: need an even number (>= 2) of cards";
  let base = Params.scaled in
  let dpu_params = { base with Params.cpu_hz = base.Params.cpu_hz *. dpu_speedup } in
  List.iter
    (fun s -> ignore (Fabric.add_server fabric s ~params:dpu_params : Vswitch.t))
    cards;
  let arr = Array.of_list cards in
  let pairs =
    Array.init (n / 2) (fun i -> { primary = arr.(2 * i); backup = arr.((2 * i) + 1) })
  in
  let t =
    {
      fabric;
      pairs;
      buckets = Array.init n_buckets (fun i -> i mod (n / 2));
      served = Vnic.Addr.Table.create 8;
      dpu_params;
      connections = 0;
      pingpongs = 0;
      transfers = 0;
      cycles = 0;
    }
  in
  (* Install the pool datapath on every card. *)
  List.iter
    (fun s ->
      let vs = Fabric.vswitch fabric s in
      Vswitch.set_net_hook vs (Some (fun pkt ~outer -> card_hook t s pkt ~outer)))
    cards;
  t

and bucket_of t pkt = Five_tuple.session_hash pkt.Packet.flow mod Array.length t.buckets

and charge t vs ~cycles k =
  t.cycles <- t.cycles + cycles;
  Vswitch.charge vs ~cycles k

and sessions_for s pair_idx t =
  match Hashtbl.find_opt s.sessions pair_idx with
  | Some table -> table
  | None ->
    let table =
      Flow_table.create ~entry_overhead:0
        ~value_bytes:(fun e ->
          Params.session_entry_overhead
          + match e.state with Some _ -> t.dpu_params.Params.state_slot_bytes | None -> 0)
        ~default_aging:t.dpu_params.Params.flow_aging ()
    in
    Hashtbl.replace s.sessions pair_idx table;
    table

(* Full processing on the owning primary card: rules, flows and state are
   all here.  State-changing packets ping-pong through the backup. *)
and process_on_primary t s pair_idx pkt ~outer =
  let vs = Fabric.vswitch t.fabric t.pairs.(pair_idx).primary in
  let backup_vs = Fabric.vswitch t.fabric t.pairs.(pair_idx).backup in
  let table = sessions_for s pair_idx t in
  let key = Flow_key.of_packet_fields ~vpc:pkt.Packet.vpc ~flow:pkt.Packet.flow in
  let dir =
    if Ipv4.equal pkt.Packet.flow.Five_tuple.src s.vnic.Vnic.ip then Packet.Tx else Packet.Rx
  in
  let finish pre verdict =
    match verdict with
    | Nf.Drop reason -> Vswitch.count_drop vs reason
    | Nf.Deliver ->
      let outer_dst =
        match dir with
        | Packet.Rx -> Topology.underlay_ip (Fabric.topology t.fabric) s.host
        | Packet.Tx -> (
          match pre.Pre_action.peer_server with
          | Some server -> server
          | None -> Vswitch.gateway vs)
      in
      Packet.encap_vxlan pkt ~vni:s.vni ~outer_src:(Vswitch.underlay_ip vs) ~outer_dst;
      Vswitch.emit vs (Vswitch.To_net pkt)
  in
  let run ~pre ~prior_state ~lookup_cycles ~fresh =
    let decap_src = Option.map (fun v -> v.Packet.outer_src) outer in
    let cycles =
      Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt)
      + lookup_cycles + Params.encap_cycles
      + if fresh then Params.session_setup_cycles else 0
    in
    charge t vs ~cycles (fun _ ->
        let verdict, out =
          Nf.process ~pre ~state:prior_state ~dir ~flags:pkt.Packet.flags
            ~proto:pkt.Packet.flow.Five_tuple.proto ~wire_bytes:(Packet.wire_size pkt)
            ?decap_src ()
        in
        let store state =
          ignore
            (Flow_table.insert table ~now:(Sim.now (Vswitch.sim vs)) key { pre; state }
              : Admission.t)
        in
        match out with
        | Nf.Keep ->
          ignore (Flow_table.touch table ~now:(Sim.now (Vswitch.sim vs)) key : bool);
          finish pre verdict
        | Nf.Init st | Nf.Update st ->
          if out <> Nf.Keep && (match out with Nf.Init _ -> true | _ -> false) then
            t.connections <- t.connections + 1;
          store (Some st);
          (* In-line replication: the packet detours through the backup,
             which applies the same state write (§2.3.3).  The detour
             costs backup cycles plus two intra-pool hops before the
             packet continues. *)
          t.pingpongs <- t.pingpongs + 1;
          let hop =
            2.0
            *. Topology.latency (Fabric.topology t.fabric) t.pairs.(pair_idx).primary
                 t.pairs.(pair_idx).backup
          in
          let replicate_cycles =
            (* A brand-new session installs on the backup too — the full
               setup cost, which is why in-line replication halves the
               pool's CPS (§2.3.3). *)
            (match out with
            | Nf.Init _ -> Params.session_setup_cycles + Params.fast_path_cycles
            | Nf.Update _ | Nf.Keep -> Params.fast_path_cycles + Params.state_update_cycles)
            + Params.packet_cycles ~wire_bytes:(Packet.wire_size pkt)
          in
          t.cycles <- t.cycles + replicate_cycles;
          if
            Smartnic.submit (Vswitch.nic backup_vs) ~cycles:replicate_cycles (fun sim ->
                ignore
                  (Sim.schedule sim ~delay:hop (fun _ -> finish pre verdict) : Sim.handle))
          then ()
          else Vswitch.count_drop backup_vs Nf.Queue_overflow)
  in
  match Flow_table.find table key with
  | Some { pre; state } ->
    run ~pre ~prior_state:state ~lookup_cycles:Params.fast_path_cycles ~fresh:false
  | None -> (
    match Hashtbl.find_opt s.replicas t.pairs.(pair_idx).primary with
    | None -> Vswitch.count_drop vs Nf.No_route
    | Some rs -> (
      let flow_tx =
        if dir = Packet.Tx then pkt.Packet.flow else Five_tuple.reverse pkt.Packet.flow
      in
      match Vswitch.slow_path vs rs ~vpc:pkt.Packet.vpc ~flow_tx with
      | None ->
        charge t vs ~cycles:Params.table_base_cycles (fun _ ->
            Vswitch.count_drop vs Nf.No_route)
      | Some { Ruleset.pre; cycles } -> run ~pre ~prior_state:None ~lookup_cycles:cycles ~fresh:true))

and card_hook t self pkt ~outer =
  let try_addr addr =
    match Vnic.Addr.Table.find_opt t.served addr with
    | None -> None
    | Some s -> Some s
  in
  let dst = { Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.dst } in
  let src = { Vnic.Addr.vpc = pkt.Packet.vpc; ip = pkt.Packet.flow.Five_tuple.src } in
  match (try_addr dst, try_addr src) with
  | None, None -> `Continue
  | Some s, _ | None, Some s ->
    let pair_idx = t.buckets.(bucket_of t pkt) in
    let vs = Fabric.vswitch t.fabric self in
    if self = t.pairs.(pair_idx).primary then begin
      process_on_primary t s pair_idx pkt ~outer;
      `Handled
    end
    else begin
      (* Sender ECMP hashed to a card that does not own this bucket:
         forward to the owner (one intra-pool hop). *)
      charge t vs ~cycles:(Params.fast_path_cycles / 2) (fun _ ->
          Packet.encap_vxlan pkt ~vni:s.vni ~outer_src:(Vswitch.underlay_ip vs)
            ~outer_dst:
              (Topology.underlay_ip (Fabric.topology t.fabric) t.pairs.(pair_idx).primary);
          Vswitch.emit vs (Vswitch.To_net pkt));
      `Handled
    end

let card_vswitches t =
  Array.to_list t.pairs
  |> List.concat_map (fun p -> [ Fabric.vswitch t.fabric p.primary; Fabric.vswitch t.fabric p.backup ])

let primary_ips t =
  Array.to_list t.pairs
  |> List.map (fun p -> Topology.underlay_ip (Fabric.topology t.fabric) p.primary)
  |> Array.of_list

let offload_vnic t ~server ~vnic =
  match Fabric.vswitch_opt t.fabric server with
  | None -> Error "no vSwitch on host"
  | Some host_vs -> (
    match (Vswitch.ruleset host_vs vnic, Vswitch.vnic_info host_vs vnic) with
    | None, _ -> Error "vNIC has no rule tables"
    | _, None -> Error "unknown vNIC"
    | Some rs, Some vnic_rec ->
      let addr = Vnic.addr vnic_rec in
      let replicas = Hashtbl.create 8 in
      Array.iter
        (fun pair ->
          List.iter
            (fun card ->
              let replica = Ruleset.clone rs in
              let card_vs = Fabric.vswitch t.fabric card in
              ignore
                (Smartnic.mem_reserve (Vswitch.nic card_vs) (Ruleset.memory_bytes replica)
                  : bool);
              Hashtbl.replace replicas card replica)
            [ pair.primary; pair.backup ])
        t.pairs;
      let s =
        { vnic = vnic_rec; vni = Ruleset.vni rs; host = server; replicas; sessions = Hashtbl.create 4 }
      in
      Vnic.Addr.Table.replace t.served addr s;
      (* The host becomes a thin pass-through: TX steers into the pool;
         RX (already fully processed by a card) goes straight to the VM. *)
      Vswitch.set_intercept host_vs vnic
        (Some
           {
             Vswitch.on_tx =
               (fun pkt ->
                 let pair_idx = t.buckets.(bucket_of t pkt) in
                 Vswitch.charge host_vs ~cycles:Params.encap_cycles (fun _ ->
                     Packet.encap_vxlan pkt ~vni:s.vni
                       ~outer_src:(Vswitch.underlay_ip host_vs)
                       ~outer_dst:
                         (Topology.underlay_ip (Fabric.topology t.fabric)
                            t.pairs.(pair_idx).primary);
                     Vswitch.emit host_vs (Vswitch.To_net pkt));
                 `Handled);
             on_rx =
               (fun pkt ->
                 Vswitch.charge host_vs ~cycles:(Params.fast_path_cycles / 4) (fun _ ->
                     Vswitch.deliver_local host_vs vnic pkt);
                 `Handled);
             on_tx_batch = None;
           });
      Vswitch.drop_ruleset host_vs vnic;
      (* Point the world at the pool. *)
      Gateway.set_route (Fabric.gateway t.fabric) addr (primary_ips t);
      List.iter
        (fun srv ->
          match Fabric.vswitch_opt t.fabric srv with
          | None -> ()
          | Some vs ->
            List.iter
              (fun vid ->
                match Vswitch.ruleset vs vid with
                | Some peer_rs when Ruleset.find_mapping peer_rs addr <> None ->
                  Ruleset.set_mapping_multi peer_rs addr (primary_ips t)
                | Some _ | None -> ())
              (Vswitch.vnic_ids vs))
        (Topology.servers (Fabric.topology t.fabric));
      Ok ())

let rebalance t =
  let n_pairs = Array.length t.pairs in
  let old = Array.copy t.buckets in
  Array.iteri (fun i _ -> t.buckets.(i) <- (old.(i) + 1) mod n_pairs) t.buckets;
  (* Long-lived sessions in moved buckets must follow their bucket:
     state transfer to the new owner. *)
  Vnic.Addr.Table.iter
    (fun _ s ->
      let moves = ref [] in
      Hashtbl.iter
        (fun pair_idx table ->
          Flow_table.iter table (fun key e ->
              let bucket = Five_tuple.session_hash key.Flow_key.flow mod Array.length t.buckets in
              let new_pair = t.buckets.(bucket) in
              if new_pair <> pair_idx then moves := (pair_idx, new_pair, key, e) :: !moves))
        s.sessions;
      List.iter
        (fun (old_pair, new_pair, key, e) ->
          let old_table = sessions_for s old_pair t in
          ignore (Flow_table.remove old_table key : bool);
          let new_table = sessions_for s new_pair t in
          ignore
            (Flow_table.insert new_table
               ~now:(Sim.now (Fabric.sim t.fabric))
               key e
              : Admission.t);
          t.transfers <- t.transfers + 1)
        !moves)
    t.served

let connections_processed t = t.connections
let replication_pingpongs t = t.pingpongs
let state_transfers t = t.transfers
let pool_cycles t = t.cycles
