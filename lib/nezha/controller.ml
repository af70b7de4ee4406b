open Nezha_engine
open Nezha_fabric
open Nezha_tables
open Nezha_vswitch

(* The paper's control policy (§4, Fig. 8, App. B): one value each. *)
let offload_threshold = 0.70 (* §4.2.1 / Fig. 8 *)
let scale_threshold = 0.40 (* Fig. 8 *)
let safe_level = 0.40 (* target utilization after mitigation *)
let overload_level = 0.95 (* an overload occurrence (Fig. 13) *)
let initial_fes = 4 (* App. B.2 *)
let learning_interval = 0.2 (* vNIC-server learning, §4.2.1 *)
let rtt = 0.0005 (* in-flight slack *)
let push_bytes_per_s = 200e6 (* rule-table push bandwidth to an FE *)
let fe_mem_max = 0.50 (* idle-candidate memory ceiling *)
let ewma_alpha = 0.3 (* smoothing of the p2c CPU load signal *)
let fe_pressure_weight = 0.05 (* p2c load per vNIC already steered at a server *)

(* Control-plane RPCs to servers: log-normal latency around a 180 ms
   median, an attempt declared lost after 500 ms, base-2 backoff capped
   at 5 s, abandoned after 4 retries. *)
let rpc_latency = 0.18
let rpc_timeout = 0.5
let rpc_backoff = 2.0
let rpc_backoff_cap = 5.0
let rpc_max_retries = 4

let rpc_retry_delay ~attempt =
  if attempt < 0 then invalid_arg "Controller.rpc_retry_delay: attempt must be >= 0";
  Float.min (rpc_timeout *. (rpc_backoff ** float_of_int attempt)) rpc_backoff_cap

(* How long a replaced route's old targets stay configured: the
   learning window plus in-flight slack. *)
let retention = learning_interval +. rtt

type config = {
  report_interval : float;
  min_fes : int;
  fe_cpu_max : float;
  auto_offload : bool;
  auto_scale : bool;
  auto_fallback : bool;
  fallback_idle_ticks : int;
  placement : Placement.policy;
  slo : Slo.config option;
}

let default_config =
  {
    report_interval = 1.0;
    min_fes = 4;
    fe_cpu_max = 0.30;
    auto_offload = true;
    auto_scale = true;
    auto_fallback = false;
    fallback_idle_ticks = 5;
    placement = Placement.Least_loaded;
    slo = None;
  }

type offload = {
  key : int * int; (* (original be_server, vnic id) *)
  mutable be_server : Topology.server_id;
  vnic : Vnic.t;
  vni : int;
  saved_ruleset : Ruleset.t;
  triggered_at : float;
  mutable be : Be.t option;
  mutable fe_servers : Topology.server_id list;
  mutable completed_at : float option;
  mutable active : bool;
  mutable falling_back : bool;
  mutable repairing : bool;
      (* divergence detected (crash, lost config) and repair in
         progress — part of the conservation invariant *)
  mutable idle_ticks : int;
}

(* The collected BE re-advertisements plus the node-side FE service
   handles — what a standby controller rebuilds its world from after a
   takeover.  Conceptually this is state the *nodes* own (each BE
   re-advertises (vnic, vni, FE set, saved tables) on boot and on
   change; each FE service lives on its node): the registry is the
   rendezvous both controllers of an HA pair share, not controller
   memory — which is exactly why a primary crash cannot lose it. *)
module Registry = struct
  type entry = {
    mutable r_be_server : Topology.server_id;
    r_vnic : Vnic.t;
    r_vni : int;
    r_ruleset : Ruleset.t;
    mutable r_fe_servers : Topology.server_id list;
    mutable r_be : Be.t option;
  }

  type t = {
    offloads : (int * int, entry) Hashtbl.t;
    fes : (int, Fe.t) Hashtbl.t;
  }

  let create () = { offloads = Hashtbl.create 16; fes = Hashtbl.create 32 }
  let entries t = Hashtbl.length t.offloads
end

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  cfg : config;
  rng : Rng.t;
  mutable fe_services : (int, Fe.t) Hashtbl.t;
  offload_tbl : (int * int, offload) Hashtbl.t;
  mutable offload_order : offload list; (* newest first *)
  reports : (int, float * float) Hashtbl.t;
  slow_prev : (int * int, int) Hashtbl.t;
  remote_prev : (int, int) Hashtbl.t;
  busy_prev : (int, float) Hashtbl.t;
  monitor : Monitor.t;
  completion_ms : Stats.Histogram.t;
  overloads : (int, int) Hashtbl.t;
  last_scaled : (int * int, float) Hashtbl.t;
  scaled_in_until : (int, float) Hashtbl.t;
  mutable offload_events : int;
  mutable scale_out_events : int;
  mutable fes_provisioned : int;
  mutable rpc_attempts : int;
  mutable rpc_retries : int;
  mutable rpc_failures : int;
  mutable started : bool;
  mutable alive : bool;
      (* controller-process liveness: halted controllers apply nothing
         and their in-flight RPC continuations die on arrival *)
  mutable epoch : int;
      (* fencing token presented with every command (DESIGN.md §13) *)
  mutable registry : Registry.t option;
  mutable fenced_rejected : int;
  mutable stale_discards : int;
  mutable reconciles : int;
  mutable repairs : int;
  mutable telemetry : Nezha_telemetry.Telemetry.t option;
      (* propagated to FE services and BEs created after registration *)
  load_ewma : (Topology.server_id, Placement.Ewma.t) Hashtbl.t;
      (* smoothed reported CPU per server — the p2c load signal *)
  slo_state : Slo.t option;
  mutable slo_pool : int; (* distinct FE servers at the last SLO tick *)
}

let config t = t.cfg
let fabric t = t.fabric
let monitor t = t.monitor

(* Control-plane RPC latency: median [rpc_latency] with a log-normal
   tail, which is what produces Table 4's P999/median spread. *)
let rpc t = rpc_latency *. Rng.lognormal t.rng ~mu:0.0 ~sigma:0.6

(* One controller→server RPC over the (possibly impaired) management
   path.  Delivery is decided by the fault plane; a lost attempt retries
   after a capped exponential backoff.  [k true] runs after the delivered
   attempt's latency; [k false] once retries are exhausted.  Without a
   fault plane this is exactly a [rpc t] delay — one rng draw.

   Every RPC is stamped with the target's incarnation at send time: if
   the node crashed (and possibly rebooted) while the exchange was in
   flight, the arriving reply belongs to a process that no longer
   exists and is discarded as stale — the continuation sees failure,
   never a ghost ack.  A halted controller's continuations are dropped
   outright (its process died with them). *)
let rpc_to t server k =
  let faults = Fabric.faults t.fabric in
  let inc0 = match faults with Some f -> Faults.incarnation f server | None -> 0 in
  let k ok =
    if t.alive then begin
      match faults with
      | Some f when Faults.incarnation f server <> inc0 ->
        t.stale_discards <- t.stale_discards + 1;
        k false
      | Some f when ok && Faults.is_crashed f server ->
        (* vSwitch-only crash: the link is up but nobody is home. *)
        t.stale_discards <- t.stale_discards + 1;
        k false
      | Some _ | None -> k ok
    end
  in
  let delivered () =
    match Fabric.faults t.fabric with
    | None -> true
    | Some f -> (
      match Faults.consult f ~src:Faults.Gateway ~dst:(Faults.Server server) with
      | Faults.Drop -> false
      | Faults.Pass | Faults.Delay _ | Faults.Duplicate _ -> true)
  in
  let rec attempt n =
    t.rpc_attempts <- t.rpc_attempts + 1;
    if delivered () then
      ignore (Sim.schedule t.sim ~delay:(rpc t) (fun _ -> k true) : Sim.handle)
    else if n >= rpc_max_retries then begin
      t.rpc_failures <- t.rpc_failures + 1;
      ignore (Sim.schedule t.sim ~delay:rpc_timeout (fun _ -> k false) : Sim.handle)
    end
    else begin
      t.rpc_retries <- t.rpc_retries + 1;
      let backoff = rpc_retry_delay ~attempt:n in
      ignore (Sim.schedule t.sim ~delay:backoff (fun _ -> attempt (n + 1)) : Sim.handle)
    end
  in
  attempt 0

let servers_with_vswitch t =
  List.filter
    (fun s -> Fabric.vswitch_opt t.fabric s <> None)
    (Topology.servers (Fabric.topology t.fabric))

let utilization_of t s =
  match Hashtbl.find_opt t.reports s with
  | Some (cpu, mem) -> (cpu, mem)
  | None -> (
    match Fabric.vswitch_opt t.fabric s with
    | Some vs ->
      let nic = Vswitch.nic vs in
      (Smartnic.peek_utilization nic ~window:t.cfg.report_interval, Smartnic.mem_utilization nic)
    | None -> (1.0, 1.0))

let last_cpu t s = fst (utilization_of t s)
let last_mem t s = snd (utilization_of t s)

(* The live load signal for power-of-two-choices placement: smoothed
   reported CPU plus a pressure term for offloads already steering at
   this server — a freshly-picked FE's CPU lags the decision by a
   report interval, so raw reports alone herd every placement onto the
   same momentarily-idle server. *)
let load_signal t s =
  let base =
    match Hashtbl.find_opt t.load_ewma s with
    | Some e -> Placement.Ewma.value e
    | None -> last_cpu t s
  in
  let pressure =
    match Hashtbl.find_opt t.fe_services s with
    | Some fe -> fe_pressure_weight *. float_of_int (Fe.served_count fe)
    | None -> 0.0
  in
  base +. pressure

let fe_service t s = Hashtbl.find_opt t.fe_services s

let fe_service_ensure t s =
  match Hashtbl.find_opt t.fe_services s with
  | Some fe -> fe
  | None ->
    let fe = Fe.install (Fabric.vswitch t.fabric s) in
    Hashtbl.replace t.fe_services s fe;
    (match t.telemetry with Some reg -> Fe.register_telemetry fe reg | None -> ());
    fe

let underlay t s = Topology.underlay_ip (Fabric.topology t.fabric) s
let fe_ips t servers = Array.of_list (List.map (underlay t) servers)

let install_be t ~vs ~vnic ~vni ~fes ~fallback_ruleset =
  let be = Be.install ~vs ~vnic ~vni ~fes ?fallback_ruleset () in
  (match t.telemetry with Some reg -> Be.register_telemetry be reg | None -> ());
  be

(* ------------------------------------------------------------------ *)
(* Epoch fencing (DESIGN.md §13).  Every command that mutates dataplane
   or routing state first presents this controller's epoch to the
   touched component; a refusal means a newer primary exists and the
   command must be dropped on the floor — a revived stale primary is
   thereby provably unable to flap placements. *)

let fence_refused t =
  t.fenced_rejected <- t.fenced_rejected + 1;
  false

let fenced t server =
  (t.alive
  &&
  match Fabric.vswitch_opt t.fabric server with
  | Some vs -> Vswitch.observe_epoch vs ~epoch:t.epoch
  | None -> true)
  || fence_refused t

let fence_gateway t =
  (t.alive && Gateway.observe_epoch (Fabric.gateway t.fabric) ~epoch:t.epoch)
  || fence_refused t

(* Mirror an offload's intent into the shared registry (modelling the
   involved nodes' re-advertisements).  Called only after a fenced
   command applied, so a stale primary never pollutes it. *)
let registry_sync t o =
  match t.registry with
  | None -> ()
  | Some reg ->
    if o.active then begin
      match Hashtbl.find_opt reg.Registry.offloads o.key with
      | Some e ->
        e.Registry.r_be_server <- o.be_server;
        e.Registry.r_fe_servers <- o.fe_servers;
        e.Registry.r_be <- o.be
      | None ->
        Hashtbl.replace reg.Registry.offloads o.key
          {
            Registry.r_be_server = o.be_server;
            r_vnic = o.vnic;
            r_vni = o.vni;
            r_ruleset = o.saved_ruleset;
            r_fe_servers = o.fe_servers;
            r_be = o.be;
          }
    end
    else Hashtbl.remove reg.Registry.offloads o.key

(* ------------------------------------------------------------------ *)
(* Intent -> dataplane steps shared by offload, scale-out, pinning,
   reconciliation and anti-entropy. *)

(* A fresh replica of the offload's tables on [fe], pointed at the BE. *)
let serve_replica t o fe =
  Fe.serve fe ~vnic:o.vnic ~ruleset:(Ruleset.clone o.saved_ruleset) ~be:(underlay t o.be_server)

(* Restore a replica the node lost (crash, silent divergence). *)
let restore_fe t o fe =
  match serve_replica t o fe with Ok () -> t.repairs <- t.repairs + 1 | Error _ -> ()

(* A BE tracker for [o] on [vs] taking over from [o.be]: same FEs, same
   stage (or [Final]). *)
let successor_be t o vs =
  let be =
    install_be t ~vs ~vnic:o.vnic ~vni:o.vni ~fes:(fe_ips t o.fe_servers)
      ~fallback_ruleset:(Some o.saved_ruleset)
  in
  Be.set_stage be (match o.be with Some b -> Be.stage b | None -> Be.Final);
  be

(* Replace a BE tracker that died with its node. *)
let reinstall_be t o vs =
  o.be <- Some (successor_be t o vs);
  t.repairs <- t.repairs + 1;
  registry_sync t o

(* Keep [fe]'s replica of [addr] through the learning window so
   in-flight packets still process, then release it. *)
let retire_replica_later t fe addr =
  ignore
    (Sim.schedule t.sim ~delay:retention (fun _ -> if t.alive then Fe.unserve fe addr)
      : Sim.handle)

(* Rule-table push time to one FE. *)
let push_time o = float_of_int (Ruleset.memory_bytes o.saved_ruleset) /. push_bytes_per_s

(* Active offloads of the vNIC at [addr]. *)
let offloads_of_addr t addr =
  Hashtbl.fold
    (fun _ o acc -> if o.active && Vnic.Addr.equal (Vnic.addr o.vnic) addr then o :: acc else acc)
    t.offload_tbl []

(* ------------------------------------------------------------------ *)
(* FE candidate selection (§4.2.1, App. B.1): idle vSwitches, same ToR
   as the BE first, then the wider pool; similar load preferred. *)

let select_fe_candidates ?(version_filter = fun _ -> true) t ~be_server ~exclude ~count =
  let topo = Fabric.topology t.fabric in
  let eligible s =
    s <> be_server
    && (not (List.mem s exclude))
    && (match Fabric.vswitch_opt t.fabric s with
       (* A crashed SmartNIC reports zero utilization; never pick it. *)
       | Some vs ->
         (not (Smartnic.is_crashed (Vswitch.nic vs)))
         && version_filter (Vswitch.software_version vs)
         (* A server that just evicted its FEs needs its resources for
            local traffic; leave it alone for a while. *)
         && (match Hashtbl.find_opt t.scaled_in_until s with
            | Some until -> Sim.now t.sim >= until
            | None -> true)
       | None -> false)
    &&
    let cpu, mem = utilization_of t s in
    cpu <= t.cfg.fe_cpu_max && mem <= fe_mem_max
  in
  let same_rack s = Topology.same_rack topo s be_server in
  let servers = servers_with_vswitch t in
  match t.cfg.placement with
  | Placement.Least_loaded ->
    Placement.select ~eligible ~same_rack ~cpu:(last_cpu t) ~count servers
  | Placement.Power_of_two ->
    Placement.select_p2c ~rng:t.rng ~eligible ~same_rack ~load:(load_signal t)
      ~suspect:(fun s -> Monitor.is_suspect t.monitor ~key:s)
      ~count servers

(* ------------------------------------------------------------------ *)
(* vNIC-server learning: after the gateway entry changes, every vSwitch
   holding a mapping for this overlay address refreshes it within the
   200 ms learning interval (§4.2.1).  Returns the slowest learner's
   delay, which bounds "all traffic flows through the new targets". *)

let propagate_learning t ~addr ~targets =
  let max_delay = ref 0.0 in
  List.iter
    (fun s ->
      match Fabric.vswitch_opt t.fabric s with
      | None -> ()
      | Some vs ->
        List.iter
          (fun vid ->
            match Vswitch.ruleset vs vid with
            | None -> ()
            | Some rs -> (
              match Ruleset.find_mapping rs addr with
              | None -> ()
              | Some current ->
                if current <> targets then begin
                  let delay = Rng.float t.rng learning_interval in
                  if delay > !max_delay then max_delay := delay;
                  ignore
                    (Sim.schedule t.sim ~delay (fun _ ->
                         Ruleset.set_mapping_multi rs addr targets;
                         ignore (Vswitch.sync_rule_memory vs vid : Admission.t))
                      : Sim.handle)
                end))
          (Vswitch.vnic_ids vs))
    (servers_with_vswitch t);
  !max_delay

let update_routing t o =
  if not (fence_gateway t) then 0.0
  else begin
    let addr = Vnic.addr o.vnic in
    let targets = fe_ips t o.fe_servers in
    Gateway.set_route (Fabric.gateway t.fabric) addr targets;
    (match o.be with Some be -> Be.set_fes be targets | None -> ());
    registry_sync t o;
    propagate_learning t ~addr ~targets
  end

(* ------------------------------------------------------------------ *)
(* Fallback (§4.2.2) *)

let fallback_vnic t o =
  if not o.active then Error "offload not active"
  else if o.falling_back then Error "fallback already in progress"
  else if not (fenced t o.be_server) then Error "fenced: stale controller epoch"
  else begin
    match Fabric.vswitch_opt t.fabric o.be_server with
    | None -> Error "BE server vanished"
    | Some vs -> (
      let restored =
        (* During the dual-running stage the local tables still exist. *)
        match Vswitch.ruleset vs o.vnic.Vnic.id with
        | Some _ -> Admission.ok
        | None -> Vswitch.restore_ruleset vs o.vnic.Vnic.id o.saved_ruleset
      in
      match restored with
      | Error _ -> Error "BE lacks memory to restore rule tables"
      | Ok () ->
        o.falling_back <- true;
        (match o.be with Some be -> Be.set_stage be Be.Dual | None -> ());
        let addr = Vnic.addr o.vnic in
        let be_ip = [| underlay t o.be_server |] in
        if fence_gateway t then Gateway.set_route (Fabric.gateway t.fabric) addr be_ip;
        ignore (propagate_learning t ~addr ~targets:be_ip : float);
        ignore
          (Sim.schedule t.sim ~delay:retention (fun _ ->
               if t.alive then begin
                 (match o.be with Some be -> Be.uninstall be | None -> ());
                 List.iter
                   (fun s ->
                     match Hashtbl.find_opt t.fe_services s with
                     | Some fe -> Fe.unserve fe addr
                     | None -> ())
                   o.fe_servers;
                 o.active <- false;
                 Hashtbl.remove t.offload_tbl o.key;
                 registry_sync t o
               end)
            : Sim.handle);
        Ok ())
  end

(* ------------------------------------------------------------------ *)
(* Failover (§4.4) and monitor wiring *)

let rec watch_fe_host t s =
  match Fabric.vswitch_opt t.fabric s with
  | None -> ()
  | Some _ ->
    (* The health check is a real round-trip over the fabric: loss and
       partitions produce genuinely missed probes (§4.4, §C.2). *)
    Monitor.watch_probe t.monitor ~key:s
      ~probe:(fun ~reply -> Fabric.ping t.fabric ~dst:s ~reply)
      ~on_fail:(fun ~key -> failover t key)

and failover t dead_server =
  (match (if t.alive then Hashtbl.find_opt t.fe_services dead_server else None) with
  | None -> ()
  | Some fe ->
    let served = Fe.served_vnics fe in
    List.iter
      (fun addr ->
        (* Unserve *before* re-provisioning: scale_out below is free to
           re-pick this very server once it heals, and a later unserve
           would silently wipe that fresh configuration while the join
           RPC still adds it to the routing — a blackhole. *)
        Fe.unserve fe addr;
        List.iter (fun o -> drop_fe t o dead_server) (offloads_of_addr t addr))
      served)

(* Take [server] out of [o]'s FE set and refill to [min_fes] from
   other servers. *)
and drop_fe t o server =
  o.fe_servers <- List.filter (fun s -> s <> server) o.fe_servers;
  (* An empty target set cannot be routed (and Gateway.set_route
     rejects it); the fallback below handles that case. *)
  if o.fe_servers <> [] then ignore (update_routing t o : float);
  let missing = t.cfg.min_fes - List.length o.fe_servers in
  let added = if missing > 0 then scale_out t ~avoid:[ server ] o ~add:missing else 0 in
  (* Every FE gone and no replacement available: restore local serving
     rather than blackhole the vNIC. *)
  if o.fe_servers = [] && added = 0 then ignore (fallback_vnic t o : (unit, string) result)

(* Serve a replica on [s] and watch its host; false if [s] lacks the
   memory for the tables. *)
and provision_fe t o s =
  match serve_replica t o (fe_service_ensure t s) with
  | Ok () ->
    watch_fe_host t s;
    true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Scale-out (§4.3) *)

and scale_out t ?(avoid = []) o ~add =
  if add <= 0 || not o.active then 0
  else if not (fenced t o.be_server) then 0
  else begin
    let candidates =
      select_fe_candidates t ~be_server:o.be_server
        ~exclude:(avoid @ o.fe_servers) ~count:add
    in
    let configured = List.filter (provision_fe t o) candidates in
    let added = List.length configured in
    if added > 0 then begin
      t.scale_out_events <- t.scale_out_events + 1;
      t.fes_provisioned <- t.fes_provisioned + added;
      (* Config push happens in the background; each new FE joins the
         routing after its push RPC lands (with retries under faults) —
         FEs whose config RPC ultimately fails never join. *)
      let push_time = push_time o in
      let joined = ref [] in
      let remaining = ref added in
      List.iter
        (fun s ->
          rpc_to t s (fun ok ->
              ignore
                (Sim.schedule t.sim ~delay:push_time (fun _ ->
                     if ok then joined := s :: !joined;
                     decr remaining;
                     if !remaining = 0 && o.active && !joined <> [] then begin
                       o.fe_servers <- o.fe_servers @ List.rev !joined;
                       ignore (update_routing t o : float)
                     end)
                  : Sim.handle)))
        configured
    end;
    added
  end

(* ------------------------------------------------------------------ *)
(* Offload (§4.2.1) *)

let find_offload t ~server ~vnic =
  Hashtbl.find_opt t.offload_tbl (server, Vnic.id_to_int vnic)

let offload_vnic t ~server ~vnic ?num_fes ?version_filter () =
  let num_fes = Option.value num_fes ~default:initial_fes in
  match Fabric.vswitch_opt t.fabric server with
  | None -> Error "no vSwitch on this server"
  | Some _ when not (fenced t server) -> Error "fenced: stale controller epoch"
  | Some vs -> (
    match find_offload t ~server ~vnic with
    | Some o when o.active -> Error "vNIC already offloaded"
    | Some _ | None -> (
      match (Vswitch.ruleset vs vnic, Vswitch.vnic_info vs vnic) with
      | None, _ -> Error "vNIC has no local rule tables"
      | _, None -> Error "unknown vNIC"
      | Some rs, Some vnic_rec ->
        let fe_servers =
          select_fe_candidates ?version_filter t ~be_server:server ~exclude:[] ~count:num_fes
        in
        if fe_servers = [] then Error "no idle vSwitches available as FEs"
        else begin
          let now = Sim.now t.sim in
          let o =
            {
              key = (server, Vnic.id_to_int vnic);
              be_server = server;
              vnic = vnic_rec;
              vni = Ruleset.vni rs;
              saved_ruleset = rs;
              triggered_at = now;
              be = None;
              fe_servers = [];
              completed_at = None;
              active = true;
              falling_back = false;
              repairing = false;
              idle_ticks = 0;
            }
          in
          Hashtbl.replace t.offload_tbl o.key o;
          t.offload_order <- o :: t.offload_order;
          t.offload_events <- t.offload_events + 1;
          (* Stage 1: push rule tables to every FE (parallel RPCs with
             retry under faults), then wire the locations, then the
             gateway, then learning.  The join fires once every push RPC
             has resolved — delivered or given up. *)
          let push_time = push_time o in
          let configured = ref [] in
          let remaining = ref (List.length fe_servers) in
          let stage2 sim =
            if o.active && t.alive then begin
              match !configured with
              | [] ->
                (* No FE accepted the tables: abort the offload. *)
                o.active <- false;
                Hashtbl.remove t.offload_tbl o.key
              | fes ->
                o.fe_servers <- List.rev fes;
                t.fes_provisioned <- t.fes_provisioned + List.length fes;
                let be =
                  install_be t ~vs ~vnic:vnic_rec ~vni:o.vni ~fes:(fe_ips t o.fe_servers)
                    ~fallback_ruleset:(Some o.saved_ruleset)
                in
                o.be <- Some be;
                registry_sync t o;
                (* Stage 2: gateway + learning. *)
                let gw_delay = rpc t in
                ignore
                  (Sim.schedule sim ~delay:gw_delay (fun sim' ->
                       if o.active then begin
                         let max_learn = update_routing t o in
                         let done_at = Sim.now sim' +. max_learn in
                         o.completed_at <- Some done_at;
                         Stats.Histogram.record t.completion_ms
                           ((done_at -. o.triggered_at) *. 1000.0);
                         (* Final stage: retention window, then drop
                            the local tables. *)
                         ignore
                           (Sim.schedule sim' ~delay:retention (fun _ ->
                                if o.active && not o.falling_back then begin
                                  Vswitch.drop_ruleset vs vnic;
                                  Be.set_stage be Be.Final
                                end)
                             : Sim.handle)
                       end)
                    : Sim.handle)
            end
          in
          List.iter
            (fun s ->
              rpc_to t s (fun ok ->
                  ignore
                    (Sim.schedule t.sim ~delay:push_time (fun sim ->
                         if ok && provision_fe t o s then configured := s :: !configured;
                         decr remaining;
                         if !remaining = 0 then
                           ignore
                             (Sim.schedule sim ~delay:(rpc t) (fun sim' -> stage2 sim')
                               : Sim.handle))
                      : Sim.handle)))
            fe_servers;
          Ok o
        end))

(* ------------------------------------------------------------------ *)
(* Scale-in (§4.3): evict all FEs on a vSwitch that needs its resources
   for local traffic. *)

let scale_in_server t server =
  if not (fenced t server) then ()
  else
  match Hashtbl.find_opt t.fe_services server with
  | None -> ()
  | Some fe ->
    Hashtbl.replace t.scaled_in_until server
      (Sim.now t.sim +. (30.0 *. t.cfg.report_interval));
    let served = Fe.served_vnics fe in
    List.iter
      (fun addr ->
        List.iter (fun o -> drop_fe t o server) (offloads_of_addr t addr);
        retire_replica_later t fe addr)
      served;
    Monitor.unwatch t.monitor ~key:server

(* ------------------------------------------------------------------ *)
(* SLO-driven elasticity (ROADMAP item 4): targeted scale-in of one
   offload — as opposed to [scale_in_server], which evicts a whole
   server for *local* pressure — plus the per-report-tick loop feeding
   observed P99 remote-hop latency into the {!Slo} decision core. *)

let scale_in_offload t o ~remove =
  if remove <= 0 || not o.active then 0
  else if not (fenced t o.be_server) then 0
  else begin
    let remove = min remove (List.length o.fe_servers - t.cfg.min_fes) in
    if remove <= 0 then 0
    else begin
      let topo = Fabric.topology t.fabric in
      let victims =
        Placement.take remove
          (Placement.evict_order
             ~same_rack:(fun s -> Topology.same_rack topo s o.be_server)
             ~load:(load_signal t) o.fe_servers)
      in
      o.fe_servers <- List.filter (fun s -> not (List.mem s victims)) o.fe_servers;
      ignore (update_routing t o : float);
      registry_sync t o;
      List.iter
        (fun s ->
          (* A short re-pick holdoff so the next scale-out doesn't
             immediately re-provision the server just drained. *)
          Hashtbl.replace t.scaled_in_until s
            (Sim.now t.sim +. (5.0 *. t.cfg.report_interval));
          match Hashtbl.find_opt t.fe_services s with
          | None -> ()
          | Some fe ->
            if Fe.served_count fe <= 1 then Monitor.unwatch t.monitor ~key:s;
            retire_replica_later t fe (Vnic.addr o.vnic))
        victims;
      List.length victims
    end
  end

(* Distinct FE servers across active offloads — the pool the SLO loop
   sizes. *)
let slo_pool_servers t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ o ->
      if o.active then
        List.iter (fun s -> Hashtbl.replace tbl s ()) o.fe_servers)
    t.offload_tbl;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl [])

let slo_tick t =
  match t.slo_state with
  | None -> ()
  | Some slo ->
    let samples =
      Hashtbl.fold
        (fun _ o acc ->
          if o.active then
            match o.be with
            | Some be when not (Be.closed be) ->
              List.rev_append (Be.drain_hop_latencies be) acc
            | Some _ | None -> acc
          else acc)
        t.offload_tbl []
    in
    let p99 =
      match samples with
      | [] -> None
      | _ -> Some (Stats.percentile (Array.of_list samples) 99.0)
    in
    let pool = slo_pool_servers t in
    let pool_n = List.length pool in
    t.slo_pool <- pool_n;
    if pool_n > 0 then begin
      let suspects =
        List.length
          (List.filter (fun s -> Monitor.is_suspect t.monitor ~key:s) pool)
      in
      let by_fe_count asc a b =
        let ca = List.length a.fe_servers and cb = List.length b.fe_servers in
        match if asc then compare ca cb else compare cb ca with
        | 0 -> compare a.key b.key
        | c -> c
      in
      match Slo.observe slo ~now:(Sim.now t.sim) ~p99 ~pool:pool_n ~suspects with
      | Slo.Hold _ -> ()
      | Slo.Scale_out add -> (
        (* Grow the thinnest offload — the likeliest tail contributor
           (deterministic tie-break by key). *)
        match List.sort (by_fe_count true) (List.filter (fun o -> o.active) t.offload_order) with
        | o :: _ -> ignore (scale_out t o ~add : int)
        | [] -> ())
      | Slo.Scale_in remove -> (
        match List.sort (by_fe_count false) (List.filter (fun o -> o.active) t.offload_order) with
        | o :: _ -> ignore (scale_in_offload t o ~remove : int)
        | [] -> ())
    end

(* ------------------------------------------------------------------ *)
(* Crash–restart reconciliation (DESIGN.md §13).

   [note_crash] is node-truth bookkeeping, not a controller command: at
   the crash instant the node's BE tracker and FE blobs *are* gone, so
   the handles mirroring them must agree (and release their SmartNIC
   reservations) no matter which controller observes it.  [reconcile_server]
   is the control-plane half — on reboot the node re-advertises (BE) /
   re-requests provisioning (FE) and the live primary re-pushes intent
   behind one config RPC. *)

let note_crash t sid =
  (match Hashtbl.find_opt t.fe_services sid with Some fe -> Fe.reset fe | None -> ());
  Hashtbl.iter
    (fun _ o ->
      if o.active then begin
        if o.be_server = sid then begin
          match o.be with
          | Some be when not (Be.closed be) -> Be.crash be
          | Some _ | None -> ()
        end;
        if o.be_server = sid || List.mem sid o.fe_servers then o.repairing <- true
      end)
    t.offload_tbl

let reconcile_server t sid =
  if t.alive then begin
    t.reconciles <- t.reconciles + 1;
    rpc_to t sid (fun ok ->
        if ok then begin
          (* FE half: re-request provisioning for every offload that
             intends this server as an FE. *)
          (match Hashtbl.find_opt t.fe_services sid with
          | None -> ()
          | Some fe ->
            Fe.reattach fe;
            Hashtbl.iter
              (fun _ o ->
                if
                  o.active && List.mem sid o.fe_servers
                  && (not (Fe.serves fe (Vnic.addr o.vnic)))
                  && fenced t sid
                then restore_fe t o fe)
              t.offload_tbl);
          (* BE half: the node re-advertised its offloads; install a
             fresh tracker for each (the pre-crash instance is closed
             for good). *)
          Hashtbl.iter
            (fun _ o ->
              if o.active && o.be_server = sid then begin
                match Fabric.vswitch_opt t.fabric sid with
                | Some vs
                  when (match o.be with Some be -> Be.closed be | None -> false)
                       && fenced t sid ->
                  reinstall_be t o vs
                | Some _ | None -> ()
              end)
            t.offload_tbl
        end)
  end

(* Is the offload's intent fully realized in the dataplane?  (The
   conservation invariant's "installed" arm.) *)
let offload_installed t o =
  o.fe_servers <> []
  && (match o.be with Some be -> not (Be.closed be) | None -> false)
  && List.for_all
       (fun s ->
         match Hashtbl.find_opt t.fe_services s with
         | Some fe -> Fe.serves fe (Vnic.addr o.vnic)
         | None -> false)
       o.fe_servers
  && Gateway.lookup (Fabric.gateway t.fabric) (Vnic.addr o.vnic) <> None

(* Anti-entropy sweep, piggybacked on the report interval: diff intent
   vs actual and repair divergence the lifecycle events missed (lost
   reconcile RPCs, repeated crashes, manual meddling). *)
let repair_offload t o =
  if o.active && (not o.falling_back) && o.completed_at <> None then begin
    if offload_installed t o then o.repairing <- false
    else begin
      o.repairing <- true;
      let addr = Vnic.addr o.vnic in
      let healthy s =
        match Fabric.vswitch_opt t.fabric s with
        | Some vs -> not (Smartnic.is_crashed (Vswitch.nic vs))
        | None -> false
      in
      (* BE missing and its host is healthy again. *)
      (match o.be with
      | Some be when not (Be.closed be) -> ()
      | _ -> (
        match Fabric.vswitch_opt t.fabric o.be_server with
        | Some vs when healthy o.be_server && fenced t o.be_server -> reinstall_be t o vs
        | Some _ | None -> ()));
      (* Intended FEs not serving. *)
      List.iter
        (fun s ->
          match Hashtbl.find_opt t.fe_services s with
          | Some fe when (not (Fe.serves fe addr)) && healthy s && fenced t s ->
            rpc_to t s (fun ok ->
                if ok && o.active && not (Fe.serves fe addr) then restore_fe t o fe)
          | Some _ | None -> ())
        o.fe_servers;
      (* Route lost entirely (never with a live gateway, but cheap to
         repair and keeps the invariant honest). *)
      match Gateway.lookup (Fabric.gateway t.fabric) addr with
      | Some _ -> ()
      | None ->
        if o.fe_servers <> [] && fence_gateway t then begin
          Gateway.set_route (Fabric.gateway t.fabric) addr (fe_ips t o.fe_servers);
          t.repairs <- t.repairs + 1
        end
    end
  end

(* Conservation invariant: every intended offload is installed,
   repairing, or explicitly fallback-local — never silently absent. *)
let check_conservation t =
  Hashtbl.fold
    (fun _ o acc ->
      acc
      && ((not o.active) || o.falling_back || o.completed_at = None || o.repairing
         || offload_installed t o))
    t.offload_tbl true

(* ------------------------------------------------------------------ *)
(* Tenant rule updates (§3.2.2): one master mutation, fanned out to
   every replica, with cached flows invalidated everywhere. *)

let update_tenant_rules t o f =
  if not (fenced t o.be_server) then ()
  else
  let f rs =
    f rs;
    (* The mutation may have gone through table handles (e.g. the ACL)
       that do not bump the generation themselves. *)
    Ruleset.bump_generation rs
  in
  f o.saved_ruleset;
  let addr = Vnic.addr o.vnic in
  (* BE-local tables exist during dual-running or after fallback began. *)
  (match Fabric.vswitch_opt t.fabric o.be_server with
  | Some vs -> (
    match Vswitch.ruleset vs o.vnic.Vnic.id with
    | Some rs when rs != o.saved_ruleset ->
      f rs;
      Vswitch.invalidate_cached_flows vs o.vnic.Vnic.id;
      ignore (Vswitch.sync_rule_memory vs o.vnic.Vnic.id : Admission.t)
    | Some _ ->
      Vswitch.invalidate_cached_flows vs o.vnic.Vnic.id;
      ignore (Vswitch.sync_rule_memory vs o.vnic.Vnic.id : Admission.t)
    | None -> ())
  | None -> ());
  List.iter
    (fun s ->
      match Hashtbl.find_opt t.fe_services s with
      | None -> ()
      | Some fe ->
        rpc_to t s (fun ok ->
            if ok then begin
              match Fe.ruleset_of fe addr with
              | Some replica ->
                f replica;
                Fe.invalidate_cached_flows fe addr
              | None -> ()
            end))
    o.fe_servers

(* ------------------------------------------------------------------ *)
(* BE relocation (§7.2): the VM live-migrated; only the FE-side BE
   location config changes.  The offloaded tables never move, and the
   vNIC-server entries (which point at the FEs) stay valid, which is why
   this takes effect in under a millisecond. *)

let migrate_be t o ~to_server =
  if not o.active then Error "offload not active"
  else if not (fenced t o.be_server) || not (fenced t to_server) then
    Error "fenced: stale controller epoch"
  else begin
    match (Fabric.vswitch_opt t.fabric o.be_server, Fabric.vswitch_opt t.fabric to_server) with
    | None, _ -> Error "old BE server has no vSwitch"
    | _, None -> Error "target server has no vSwitch"
    | Some old_vs, Some new_vs ->
      if Vswitch.find_vnic new_vs (Vnic.addr o.vnic) <> None then
        Error "target already hosts this vNIC"
      else begin
        (* Recreate the vNIC on the target with only the BE residual
           footprint; the hypervisor brings the session states along. *)
        let shim =
          Ruleset.create ~vni:o.vni
            ~fixed_overhead_bytes:Params.be_residual_bytes_per_vnic ()
        in
        match Vswitch.add_vnic new_vs o.vnic shim with
        | Error _ -> Error "target lacks memory for BE residual state"
        | Ok () ->
          Vswitch.drop_ruleset new_vs o.vnic.Vnic.id;
          (* Carry the states (the VM migration copies them). *)
          Vswitch.iter_sessions old_vs o.vnic.Vnic.id (fun key session ->
              match session.Vswitch.state with
              | Some _ ->
                ignore
                  (Vswitch.store_session new_vs o.vnic.Vnic.id key
                     { session with Vswitch.pre = None }
                    : Admission.t)
              | None -> ());
          let be' = successor_be t o new_vs in
          (match o.be with Some b -> Be.uninstall b | None -> ());
          Vswitch.remove_vnic old_vs o.vnic.Vnic.id;
          o.be <- Some be';
          o.be_server <- to_server;
          registry_sync t o;
          (* The sub-millisecond part: point every FE at the new BE. *)
          let new_ip = underlay t to_server in
          let addr = Vnic.addr o.vnic in
          List.iter
            (fun s ->
              match Hashtbl.find_opt t.fe_services s with
              | Some fe ->
                ignore
                  (Sim.schedule t.sim ~delay:0.0005 (fun _ -> Fe.set_be fe addr new_ip)
                    : Sim.handle)
              | None -> ())
            o.fe_servers;
          Ok ()
      end
  end

(* ------------------------------------------------------------------ *)
(* Elephant-flow pinning (§7.5) *)

let pin_elephant t o flow =
  if not o.active then Error "offload not active"
  else if not (fenced t o.be_server) then Error "fenced: stale controller epoch"
  else begin
    match
      select_fe_candidates t ~be_server:o.be_server ~exclude:o.fe_servers ~count:1
    with
    | [] -> Error "no idle vSwitch available for a dedicated FE"
    | s :: _ ->
      if not (provision_fe t o s) then Error "candidate FE lacks memory for the tables"
      else begin
        (match o.be with
        | Some be -> Be.pin_flow be flow (underlay t s)
        | None -> ());
        Ok s
      end
  end

(* ------------------------------------------------------------------ *)
(* Automatic policies (Fig. 8) *)

let heaviest_vnic t vs ~server ~by_memory =
  let score vid =
    if by_memory then float_of_int (Vswitch.vnic_memory_bytes vs vid)
    else begin
      let key = (server, Vnic.id_to_int vid) in
      let current = Vswitch.vnic_slow_execs vs vid in
      let prev = Option.value (Hashtbl.find_opt t.slow_prev key) ~default:0 in
      float_of_int (current - prev)
    end
  in
  let candidates =
    List.filter (fun vid -> Vswitch.ruleset vs vid <> None) (Vswitch.vnic_ids vs)
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
    Some
      (List.fold_left
         (fun best vid -> if score vid > score best then vid else best)
         (List.hd candidates) candidates)

let remote_fraction t s =
  match Hashtbl.find_opt t.fe_services s with
  | None -> 0.0
  | Some fe -> (
    match Fabric.vswitch_opt t.fabric s with
    | None -> 0.0
    | Some vs ->
      let nic = Vswitch.nic vs in
      let p = Vswitch.params vs in
      let remote_now = Stats.Counter.value (Fe.counters fe).Fe.remote_cycles in
      let remote_prev = Option.value (Hashtbl.find_opt t.remote_prev s) ~default:0 in
      let busy_now = Smartnic.total_busy_seconds nic in
      let busy_prev = Option.value (Hashtbl.find_opt t.busy_prev s) ~default:0.0 in
      Hashtbl.replace t.remote_prev s remote_now;
      Hashtbl.replace t.busy_prev s busy_now;
      let remote_secs = float_of_int (remote_now - remote_prev) /. p.Params.cpu_hz in
      let busy_delta = busy_now -. busy_prev in
      if busy_delta <= 1e-12 then 0.0 else Float.min 1.0 (remote_secs /. busy_delta))

(* §4.2.2: fall back when the controller estimates the local vSwitch
   would stay below the safe level even after absorbing the offloaded
   load — approximated as several consecutive reports with every FE
   near-idle and the BE well under the safe level. *)
let consider_fallback t =
  if t.cfg.auto_fallback then
    Hashtbl.iter
      (fun _ o ->
        if o.active && not o.falling_back && o.completed_at <> None then begin
          let be_cpu = last_cpu t o.be_server in
          let fe_busy =
            List.exists (fun s -> last_cpu t s > 0.05) o.fe_servers
          in
          if (not fe_busy) && be_cpu < safe_level /. 2.0 then begin
            o.idle_ticks <- o.idle_ticks + 1;
            if o.idle_ticks >= t.cfg.fallback_idle_ticks then
              ignore (fallback_vnic t o : (unit, string) result)
          end
          else o.idle_ticks <- 0
        end)
      t.offload_tbl

let report_tick t =
  List.iter
    (fun s ->
      match Fabric.vswitch_opt t.fabric s with
      | None -> ()
      | Some vs ->
        let cpu = ref 0.0 and mem = ref 0.0 in
        Vswitch.utilization_report vs ~cpu ~mem;
        Hashtbl.replace t.reports s (!cpu, !mem);
        (match Hashtbl.find_opt t.load_ewma s with
        | Some e -> Placement.Ewma.observe e !cpu
        | None ->
          let e = Placement.Ewma.create ~alpha:ewma_alpha () in
          Placement.Ewma.observe e !cpu;
          Hashtbl.replace t.load_ewma s e);
        if !cpu > overload_level || !mem > overload_level then
          Hashtbl.replace t.overloads s
            (1 + Option.value (Hashtbl.find_opt t.overloads s) ~default:0);
        let hosts_fes =
          match Hashtbl.find_opt t.fe_services s with
          | Some fe -> Fe.served_count fe > 0
          | None -> false
        in
        (* Fig. 8 decision tree. *)
        if hosts_fes && t.cfg.auto_scale && !cpu > scale_threshold then begin
          let rf = remote_fraction t s in
          if rf > 0.5 then begin
            (* Remote pressure: scale out the offload served here —
               doubling its FE count, but at most once per report
               interval even if several of its FEs are hot at once. *)
            match Hashtbl.find_opt t.fe_services s with
            | Some fe -> (
              match Fe.served_vnics fe with
              | addr :: _ ->
                List.iter
                  (fun o ->
                    let now = Sim.now t.sim in
                    let recently =
                      match Hashtbl.find_opt t.last_scaled o.key with
                      | Some t0 -> now -. t0 < t.cfg.report_interval *. 1.5
                      | None -> false
                    in
                    if not recently then begin
                      Hashtbl.replace t.last_scaled o.key now;
                      ignore (scale_out t o ~add:(List.length o.fe_servers) : int)
                    end)
                  (offloads_of_addr t addr)
              | [] -> ())
            | None -> ()
          end
          else scale_in_server t s
        end
        else if t.cfg.auto_offload && (!cpu > offload_threshold || !mem > offload_threshold)
        then begin
          match heaviest_vnic t vs ~server:s ~by_memory:(!mem > !cpu) with
          | Some vid when find_offload t ~server:s ~vnic:vid = None ->
            ignore (offload_vnic t ~server:s ~vnic:vid () : (offload, string) result)
          | Some _ | None -> ()
        end;
        (* Refresh per-vNIC slow-path baselines. *)
        List.iter
          (fun vid ->
            Hashtbl.replace t.slow_prev (s, Vnic.id_to_int vid) (Vswitch.vnic_slow_execs vs vid))
          (Vswitch.vnic_ids vs))
    (servers_with_vswitch t);
  (* Anti-entropy sweep (DESIGN.md §13): diff controller intent vs
     data-plane actual and repair divergence, piggybacked on the
     report interval. *)
  Hashtbl.iter (fun _ o -> repair_offload t o) t.offload_tbl;
  consider_fallback t;
  slo_tick t

let start t =
  if not t.started then begin
    t.started <- true;
    Monitor.start t.monitor;
    Sim.every t.sim ~period:t.cfg.report_interval (fun _ ->
        if t.alive then report_tick t;
        true)
  end

(* ------------------------------------------------------------------ *)
(* Construction and controller liveness (HA, DESIGN.md §13) *)

let create ?(config = default_config) ~fabric ~rng () =
  let sim = Fabric.sim fabric in
  let t =
    {
      sim;
      fabric;
      cfg = config;
      rng;
      fe_services = Hashtbl.create 32;
      offload_tbl = Hashtbl.create 16;
      offload_order = [];
      reports = Hashtbl.create 64;
      slow_prev = Hashtbl.create 64;
      remote_prev = Hashtbl.create 32;
      busy_prev = Hashtbl.create 64;
      monitor = Monitor.create ~sim;
      completion_ms = Stats.Histogram.create ();
      overloads = Hashtbl.create 64;
      last_scaled = Hashtbl.create 16;
      scaled_in_until = Hashtbl.create 16;
      offload_events = 0;
      scale_out_events = 0;
      fes_provisioned = 0;
      rpc_attempts = 0;
      rpc_retries = 0;
      rpc_failures = 0;
      started = false;
      alive = true;
      epoch = 1;
      registry = None;
      fenced_rejected = 0;
      stale_discards = 0;
      reconciles = 0;
      repairs = 0;
      telemetry = None;
      load_ewma = Hashtbl.create 64;
      slo_state =
        Option.map (fun c -> Slo.create ~config:c ~now:(Sim.now sim) ()) config.slo;
      slo_pool = 0;
    }
  in
  Fabric.on_lifecycle fabric (fun ~server ev ->
      match ev with
      | `Crashed -> note_crash t server
      | `Restarted -> reconcile_server t server);
  t

let halt t =
  t.alive <- false;
  Monitor.stop t.monitor

let revive t =
  t.alive <- true;
  if t.started then Monitor.start t.monitor

let alive t = t.alive
let epoch t = t.epoch
let set_epoch t e = t.epoch <- e

let set_registry t r =
  t.registry <- Some r;
  (* The FE service handles live on the nodes; both controllers of an
     HA pair address the same table. *)
  t.fe_services <- r.Registry.fes

(* A standby taking over: rebuild offload intent from the registry (BE
   re-advertisements collected from the nodes).  Entries already known
   are kept; each adopted offload is marked repairing so the next
   anti-entropy sweep verifies (and if needed restores) its dataplane
   state under the new epoch. *)
let adopt_from_registry t =
  match t.registry with
  | None -> 0
  | Some r ->
    let adopted = ref 0 in
    Hashtbl.iter
      (fun key (e : Registry.entry) ->
        if not (Hashtbl.mem t.offload_tbl key) then begin
          incr adopted;
          let o =
            {
              key;
              be_server = e.Registry.r_be_server;
              vnic = e.Registry.r_vnic;
              vni = e.Registry.r_vni;
              saved_ruleset = e.Registry.r_ruleset;
              triggered_at = Sim.now t.sim;
              be = e.Registry.r_be;
              fe_servers = e.Registry.r_fe_servers;
              completed_at = Some (Sim.now t.sim);
              active = true;
              falling_back = false;
              repairing = true;
              idle_ticks = 0;
            }
          in
          Hashtbl.replace t.offload_tbl key o;
          t.offload_order <- o :: t.offload_order;
          List.iter (fun s -> watch_fe_host t s) o.fe_servers
        end)
      r.Registry.offloads;
    !adopted

let fenced_rejected t = t.fenced_rejected
let stale_discards t = t.stale_discards
let reconciles t = t.reconciles
let repairs t = t.repairs

(* ------------------------------------------------------------------ *)
(* Introspection *)

let offloads t = List.filter (fun o -> o.active) t.offload_order
let offload_vnic_id o = o.vnic.Vnic.id
let offload_be_server o = o.be_server
let offload_fe_servers o = o.fe_servers

let offload_be o =
  match o.be with
  | Some be -> be
  | None -> failwith "Controller.offload_be: dual-running stage not reached yet"

let offload_stage o = match o.be with Some be -> Be.stage be | None -> Be.Dual
let offload_completed_at o = o.completed_at

let slo t = t.slo_state
let slo_pool_size t = List.length (slo_pool_servers t)

let completion_times_ms t = t.completion_ms
let offload_events t = t.offload_events
let scale_out_events t = t.scale_out_events
let fes_provisioned t = t.fes_provisioned
let rpc_attempts t = t.rpc_attempts
let rpc_retries t = t.rpc_retries
let rpc_failures t = t.rpc_failures

let overload_occurrences t s = Option.value (Hashtbl.find_opt t.overloads s) ~default:0

let total_overload_occurrences t =
  Hashtbl.fold (fun _ n acc -> acc + n) t.overloads 0

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  t.telemetry <- Some reg;
  T.register_counter reg ~name:"controller/offload_events" (fun () ->
      t.offload_events);
  T.register_counter reg ~name:"controller/scale_out_events" (fun () ->
      t.scale_out_events);
  T.register_counter reg ~name:"controller/fes_provisioned" (fun () ->
      t.fes_provisioned);
  T.register_counter reg ~name:"controller/overload_occurrences" (fun () ->
      total_overload_occurrences t);
  T.register_counter reg ~name:"controller/rpc_attempts" (fun () -> t.rpc_attempts);
  T.register_counter reg ~name:"controller/rpc_retries" (fun () -> t.rpc_retries);
  T.register_counter reg ~name:"controller/rpc_failures" (fun () -> t.rpc_failures);
  T.register_counter reg ~name:"controller/fenced_rejected" (fun () ->
      t.fenced_rejected);
  T.register_counter reg ~name:"controller/stale_discards" (fun () ->
      t.stale_discards);
  T.register_counter reg ~name:"controller/reconciles" (fun () -> t.reconciles);
  T.register_counter reg ~name:"controller/repairs" (fun () -> t.repairs);
  T.register_gauge reg ~name:"controller/epoch" (fun () -> float_of_int t.epoch);
  T.register_gauge reg ~name:"controller/active_offloads" (fun () ->
      float_of_int (List.length (offloads t)));
  T.register_histogram reg ~name:"controller/completion_ms" t.completion_ms;
  (match t.slo_state with
  | Some slo ->
    Slo.register_telemetry slo ~prefix:"controller/slo" reg;
    T.register_gauge reg ~name:"controller/slo/pool_size" (fun () ->
        float_of_int t.slo_pool)
  | None -> ());
  Monitor.register_telemetry t.monitor reg;
  (* Components the controller already spawned; later ones register at
     creation via [t.telemetry]. *)
  Hashtbl.iter (fun _ fe -> Fe.register_telemetry fe reg) t.fe_services;
  Hashtbl.iter
    (fun _ o -> match o.be with Some be -> Be.register_telemetry be reg | None -> ())
    t.offload_tbl

let pp_status ppf t =
  let offs = offloads t in
  Format.fprintf ppf "@[<v>%d active offload(s); %d offload event(s), %d scale-out(s), %d FE(s) provisioned@,"
    (List.length offs) t.offload_events t.scale_out_events t.fes_provisioned;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %a: BE on server %d (%s), FEs on [%s]"
        Vnic.pp o.vnic o.be_server
        (match o.be with
        | Some be -> ( match Be.stage be with Be.Final -> "final" | Be.Dual -> "dual-running")
        | None -> "configuring")
        (String.concat "; " (List.map string_of_int o.fe_servers));
      (match o.be with
      | Some be ->
        let c = Be.counters be in
        Format.fprintf ppf " | tx-via-FE %d, rx-from-FE %d, notify %d, bounced %d, pinned %d"
          (Stats.Counter.value c.Be.tx_via_fe)
          (Stats.Counter.value c.Be.rx_from_fe)
          (Stats.Counter.value c.Be.notify_received)
          (Stats.Counter.value c.Be.bounced)
          (Be.pinned_count be)
      | None -> ());
      Format.fprintf ppf "@,")
    offs;
  Format.fprintf ppf "  monitor: %d watched, %d probes, %d failure(s) declared, %d mass-failure suspicion(s)@]"
    (Monitor.watched t.monitor) (Monitor.probes_sent t.monitor)
    (Monitor.failures_declared t.monitor)
    (Monitor.mass_failure_suspected t.monitor)
