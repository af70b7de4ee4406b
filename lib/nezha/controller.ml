open Nezha_engine
open Nezha_fabric
open Nezha_tables
open Nezha_vswitch

(* The effect layer of the control plane.  Every decision is
   [Policy.step]'s: this module reads the nodes into inputs and carries
   the intents out as RPCs, simulator schedules, gateway routes and
   learning. *)

let learning_interval = 0.2 (* vNIC-server learning, §4.2.1 *)
let rtt = 0.0005 (* in-flight slack *)
let push_bytes_per_s = 200e6 (* rule-table push bandwidth to an FE *)

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
  auto_offload : bool;
  auto_scale : bool;
  auto_fallback : bool;
  placement : Placement.policy;
  slo : Slo.config option;
}

let default_config =
  { report_interval = 1.0; auto_offload = true; auto_scale = true; auto_fallback = false;
    placement = Placement.Least_loaded; slo = None }

(* The BE re-advertisements and FE service handles a standby rebuilds
   its world from: node-owned state both controllers of an HA pair
   share, which is why a primary crash cannot lose it. *)
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
  mutable view : offload Policy.view;
  mutable fe_services : (int, Fe.t) Hashtbl.t;
  monitor : Monitor.t;
  completion_ms : Stats.Histogram.t;
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
  slo_state : Slo.t option;
  mutable slo_pool : int; (* distinct FE servers at the last SLO tick *)
}

(* The node handles of one offload; its intent is the view's record. *)
and offload = {
  ctl : t;
  id : int;
  vnic : Vnic.t;
  vni : int;
  saved_ruleset : Ruleset.t;
  triggered_at : float;
  mutable be : Be.t option;
  mutable final : offload Policy.offload option; (* the intent it retired with *)
}

let config t = t.cfg
let fabric t = t.fabric
let monitor t = t.monitor

let handle t ~vnic ~vni ~rs ~be =
  { ctl = t; id = Policy.next_id t.view; vnic; vni; saved_ruleset = rs; triggered_at = Sim.now t.sim;
    be; final = None }

let intent h =
  match Policy.find h.ctl.view h.id with
  | Some o -> o
  | None -> Option.get h.final

let active h = Policy.find h.ctl.view h.id <> None

(* RPC latency: median [rpc_latency] with a log-normal tail (Table 4's
   P999/median spread). *)
let rpc t = rpc_latency *. Rng.lognormal t.rng ~mu:0.0 ~sigma:0.6

(* One controller→server RPC.  The fault plane decides delivery; a lost
   attempt retries after a capped backoff.  [k true] runs after the
   delivered attempt's latency, [k false] once retries are exhausted.
   A reply from a node that crashed meanwhile (incarnation changed) is
   stale and reads as failure; a halted controller's continuations die. *)
let rpc_to t server k =
  let faults = Fabric.faults t.fabric in
  let inc0 = match faults with Some f -> Faults.incarnation f server | None -> 0 in
  let k ok =
    if t.alive then
      match faults with
      | Some f when Faults.incarnation f server <> inc0 || (ok && Faults.is_crashed f server) ->
        (* The node rebooted meanwhile, or its vSwitch alone crashed:
           nobody home. *)
        t.stale_discards <- t.stale_discards + 1;
        k false
      | Some _ | None -> k ok
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

let topology t = Fabric.topology t.fabric
let servers t = Topology.servers (topology t)
let fe_service t s = Hashtbl.find_opt t.fe_services s

(* ------------------------------------------------------------------ *)
(* Node reads -> policy inputs *)

let candidate t s : Policy.candidate =
  let vs = Fabric.vswitch_opt t.fabric s in
  let nic = Option.map Vswitch.nic vs in
  { server = s; rack = Topology.rack_of (topology t) s; vswitch = vs <> None;
    crashed = Option.fold ~none:false ~some:Smartnic.is_crashed nic;
    version = Option.fold ~none:0 ~some:Vswitch.software_version vs;
    peek =
      (match nic with
      | Some nic -> (Smartnic.peek_utilization nic ~window:t.cfg.report_interval, Smartnic.mem_utilization nic)
      | None -> (1.0, 1.0));
    fe_served = Option.map Fe.served_count (fe_service t s);
    suspect = Monitor.is_suspect t.monitor ~key:s }

let pool t ~be_server : Policy.pool =
  { now = Sim.now t.sim; draw = t.rng; be_rack = Topology.rack_of (topology t) be_server;
    candidates = Array.of_list (List.map (candidate t) (servers t)) }

let utilization_of t s = Policy.utilization t.view (candidate t s)
let last_cpu t s = fst (utilization_of t s)
let last_mem t s = snd (utilization_of t s)
let load_signal t s = Policy.load t.view (candidate t s)

let node_report t s vs : Policy.report =
  let cpu = ref 0.0 and mem = ref 0.0 in
  Vswitch.utilization_report vs ~cpu ~mem;
  let fe f default = Option.fold ~none:default ~some:f (fe_service t s) in
  { server = s; now = Sim.now t.sim; cpu = !cpu; mem = !mem;
    fe_served = fe Fe.served_count 0;
    first_served = fe (fun fe -> List.nth_opt (Fe.served_vnics fe) 0) None;
    remote_cycles = fe (fun fe -> Stats.Counter.value (Fe.counters fe).Fe.remote_cycles) 0;
    busy = Smartnic.total_busy_seconds (Vswitch.nic vs);
    cpu_hz = (Vswitch.params vs).Params.cpu_hz;
    vnics =
      List.map
        (fun vid ->
          { Policy.vnic = vid; tables = Vswitch.ruleset vs vid <> None;
            slow_execs = Vswitch.vnic_slow_execs vs vid; mem_bytes = Vswitch.vnic_memory_bytes vs vid })
        (Vswitch.vnic_ids vs) }

let healthy t s =
  match Fabric.vswitch_opt t.fabric s with
  | Some vs -> not (Smartnic.is_crashed (Vswitch.nic vs))
  | None -> false

let health t (o : offload Policy.offload) : Policy.health =
  let replica s : Policy.replica =
    match fe_service t s with
    | Some fe when Fe.serves fe o.addr -> Serving
    | Some _ when healthy t s -> Lost
    | Some _ | None -> Gone
  in
  { be_open = (match o.node.be with Some be -> not (Be.closed be) | None -> false);
    be_host_ok = healthy t o.be_server;
    replicas = List.map (fun s -> (s, replica s)) o.fes;
    routed = Gateway.lookup (Fabric.gateway t.fabric) o.addr <> None }

let fe_service_ensure t s =
  match fe_service t s with
  | Some fe -> fe
  | None ->
    let fe = Fe.install (Fabric.vswitch t.fabric s) in
    Hashtbl.replace t.fe_services s fe;
    (match t.telemetry with Some reg -> Fe.register_telemetry fe reg | None -> ());
    fe

let underlay t s = Topology.underlay_ip (topology t) s
let fe_ips t servers = Array.of_list (List.map (underlay t) servers)

let install_be t ~vs ~vnic ~vni ~fes ~fallback_ruleset =
  let be = Be.install ~vs ~vnic ~vni ~fes ?fallback_ruleset () in
  (match t.telemetry with Some reg -> Be.register_telemetry be reg | None -> ());
  be

(* ------------------------------------------------------------------ *)
(* Epoch fencing (DESIGN.md §13): every mutating command first presents
   this controller's epoch; a refusal means a newer primary exists, so a
   revived stale one cannot flap placements. *)

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

(* Mirror an offload's intent into the shared registry (the nodes'
   re-advertisements), only after a fenced command applied. *)
let registry_sync t h =
  match t.registry with
  | None -> ()
  | Some reg -> (
    match Policy.find t.view h.id with
    | None -> Hashtbl.remove reg.Registry.offloads (intent h).key
    | Some o -> (
      match Hashtbl.find_opt reg.Registry.offloads o.key with
      | Some e ->
        e.Registry.r_be_server <- o.be_server;
        e.Registry.r_fe_servers <- o.fes;
        e.Registry.r_be <- h.be
      | None ->
        Hashtbl.replace reg.Registry.offloads o.key
          { Registry.r_be_server = o.be_server; r_vnic = h.vnic; r_vni = h.vni;
            r_ruleset = h.saved_ruleset; r_fe_servers = o.fes; r_be = h.be }))

(* ------------------------------------------------------------------ *)
(* Intent -> dataplane steps *)

(* A fresh replica of the offload's tables on [fe], pointed at the BE. *)
let serve_replica t h fe =
  Fe.serve fe ~vnic:h.vnic ~ruleset:(Ruleset.clone h.saved_ruleset)
    ~be:(underlay t (intent h).be_server)

(* Restore a replica the node lost (crash, silent divergence). *)
let restore_fe t h fe =
  match serve_replica t h fe with Ok () -> t.repairs <- t.repairs + 1 | Error _ -> ()

(* A BE tracker for [h] on [vs] taking over from [h.be]: same FEs, same
   stage (or [Final]). *)
let successor_be t h vs =
  let be =
    install_be t ~vs ~vnic:h.vnic ~vni:h.vni ~fes:(fe_ips t (intent h).fes)
      ~fallback_ruleset:(Some h.saved_ruleset)
  in
  Be.set_stage be (match h.be with Some b -> Be.stage b | None -> Be.Final);
  be

(* Replace a BE tracker that died with its node. *)
let reinstall_be t h vs =
  h.be <- Some (successor_be t h vs);
  t.repairs <- t.repairs + 1;
  registry_sync t h

(* Keep [fe]'s replica of [addr] through the learning window so
   in-flight packets still process, then release it. *)
let retire_replica_later t fe addr =
  ignore
    (Sim.schedule t.sim ~delay:retention (fun _ -> if t.alive then Fe.unserve fe addr)
      : Sim.handle)

(* Push the offload's tables to [servers], parallel RPCs with retry
   under faults, each landing after the rule-table push time.  Once
   every push has resolved, [k] gets the servers [accept ok s] took, in
   landing order. *)
let push_tables t h servers ~accept k =
  let push_time = float_of_int (Ruleset.memory_bytes h.saved_ruleset) /. push_bytes_per_s in
  let acked = ref [] and remaining = ref (List.length servers) in
  List.iter
    (fun s ->
      rpc_to t s (fun ok ->
          ignore
            (Sim.schedule t.sim ~delay:push_time (fun sim ->
                 if accept ok s then acked := s :: !acked;
                 decr remaining;
                 if !remaining = 0 then k sim (List.rev !acked))
              : Sim.handle)))
    servers

(* vNIC-server learning (§4.2.1): every vSwitch mapping this overlay
   address refreshes it within the 200 ms learning interval.  Returns
   the slowest learner's delay. *)
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
    (servers t);
  !max_delay

let update_routing t (o : offload Policy.offload) =
  if not (fence_gateway t) then 0.0
  else begin
    let targets = fe_ips t o.fes in
    Gateway.set_route (Fabric.gateway t.fabric) o.addr targets;
    (match o.node.be with Some be -> Be.set_fes be targets | None -> ());
    registry_sync t o.node;
    propagate_learning t ~addr:o.addr ~targets
  end

(* Step the view; the caller reads the intents. *)
let decide t input =
  let view, intents = Policy.step t.view input in
  t.view <- view;
  intents

(* The offload leaves the view; its handle keeps the last intent. *)
let retire t h input =
  h.final <- Policy.find t.view h.id;
  ignore (decide t input : offload Policy.intent list)

(* ------------------------------------------------------------------ *)
(* Fallback (§4.2.2) *)

let rec fallback_vnic t h =
  match Policy.find t.view h.id with
  | None -> Error "offload not active"
  | Some o when o.falling_back -> Error "fallback already in progress"
  | Some o when not (fenced t o.be_server) -> Error "fenced: stale controller epoch"
  | Some o -> (
    match Fabric.vswitch_opt t.fabric o.be_server with
    | None -> Error "BE server vanished"
    | Some vs -> (
      let restored =
        (* During the dual-running stage the local tables still exist. *)
        match Vswitch.ruleset vs h.vnic.Vnic.id with
        | Some _ -> Admission.ok
        | None -> Vswitch.restore_ruleset vs h.vnic.Vnic.id h.saved_ruleset
      in
      match restored with
      | Error _ -> Error "BE lacks memory to restore rule tables"
      | Ok () ->
        apply t (Policy.Fallback h.id);
        (match h.be with Some be -> Be.set_stage be Be.Dual | None -> ());
        let be_ip = [| underlay t o.be_server |] in
        if fence_gateway t then Gateway.set_route (Fabric.gateway t.fabric) o.addr be_ip;
        ignore (propagate_learning t ~addr:o.addr ~targets:be_ip : float);
        ignore
          (Sim.schedule t.sim ~delay:retention (fun _ ->
               if t.alive then begin
                 (match h.be with Some be -> Be.uninstall be | None -> ());
                 List.iter
                   (fun s ->
                     match fe_service t s with Some fe -> Fe.unserve fe o.addr | None -> ())
                   (intent h).fes;
                 retire t h (Policy.Retired h.id);
                 registry_sync t h
               end)
            : Sim.handle);
        Ok ()))

(* Carry the intents out, in order. *)
and apply t input = List.iter (exec t) (decide t input)

and exec t : offload Policy.intent -> unit = function
  | Policy.Offload_vnic { server; vnic } ->
    ignore (offload_vnic t ~server ~vnic () : (offload, string) result)
  | Grow { o; add; avoid; or_fallback } ->
    if scale_out t ~avoid o.node ~add = 0 && or_fallback then
      ignore (fallback_vnic t o.node : (unit, string) result)
  | Evict_server s -> scale_in_server t s
  | Shrink { o; remove } -> ignore (scale_in_offload t o.node ~remove : int)
  | Route o -> ignore (update_routing t o : float)
  | Readvertise o -> registry_sync t o.node
  | Restore_route o ->
    if fence_gateway t then begin
      Gateway.set_route (Fabric.gateway t.fabric) o.addr (fe_ips t o.fes);
      t.repairs <- t.repairs + 1
    end
  | Restore_fe { o; server; rpc } -> (
    match fe_service t server with
    | Some fe when fenced t server ->
      if not rpc then restore_fe t o.node fe
      else
        rpc_to t server (fun ok ->
            if ok && active o.node && not (Fe.serves fe o.addr) then restore_fe t o.node fe)
    | Some _ | None -> ())
  | Reinstall_be o -> (
    match Fabric.vswitch_opt t.fabric o.be_server with
    | Some vs when fenced t o.be_server -> reinstall_be t o.node vs
    | Some _ | None -> ())
  | Unserve { server; addr } -> Option.iter (fun fe -> Fe.unserve fe addr) (fe_service t server)
  | Retire_replica_later { server; addr } ->
    Option.iter (fun fe -> retire_replica_later t fe addr) (fe_service t server)
  | Unwatch s -> Monitor.unwatch t.monitor ~key:s
  | Fall_back o -> ignore (fallback_vnic t o.node : (unit, string) result)
  | Push _ | Serve_replica _ | Pin_flow _ -> () (* read by the command that asked *)

(* ------------------------------------------------------------------ *)
(* Failover (§4.4) and monitor wiring *)

and watch_fe_host t s =
  match Fabric.vswitch_opt t.fabric s with
  | None -> ()
  | Some _ ->
    (* The health check is a real round-trip over the fabric: loss and
       partitions produce genuinely missed probes (§4.4, §C.2). *)
    Monitor.watch_probe t.monitor ~key:s
      ~probe:(fun ~reply -> Fabric.ping t.fabric ~dst:s ~reply)
      ~on_fail:(fun ~key -> failover t key)

and failover t dead =
  match if t.alive then fe_service t dead else None with
  | None -> ()
  | Some fe -> apply t (Policy.Dead { server = dead; served = Fe.served_vnics fe })

(* Serve a replica on [s] and watch its host; false if [s] lacks the
   memory for the tables. *)
and provision_fe t h s =
  match serve_replica t h (fe_service_ensure t s) with
  | Ok () ->
    watch_fe_host t s;
    true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Scale-out (§4.3) *)

and scale_out t ?(avoid = []) h ~add =
  if add <= 0 || not (active h) then 0
  else if not (fenced t (intent h).be_server) then 0
  else begin
    let candidates =
      List.filter_map
        (function Policy.Serve_replica { server; _ } -> Some server | _ -> None)
        (decide t
           (Policy.Scale_out { id = h.id; add; avoid; pool = pool t ~be_server:(intent h).be_server }))
    in
    let configured = List.filter (provision_fe t h) candidates in
    let added = List.length configured in
    if added > 0 then begin
      t.scale_out_events <- t.scale_out_events + 1;
      t.fes_provisioned <- t.fes_provisioned + added;
      (* The new FEs join the routing once their config pushes land;
         one whose push ultimately fails never joins. *)
      push_tables t h configured ~accept:(fun ok _ -> ok) (fun _ fes ->
          apply t (Policy.Joined { id = h.id; fes }))
    end;
    added
  end

(* ------------------------------------------------------------------ *)
(* Scale-in (§4.3): evict all FEs on a vSwitch that needs its resources
   for local traffic; or, for the SLO loop, drop FEs from one offload. *)

and scale_in_server t server =
  if fenced t server then
    Option.iter
      (fun fe ->
        apply t
          (Policy.Scale_in_server { server; served = Fe.served_vnics fe; now = Sim.now t.sim }))
      (fe_service t server)

and scale_in_offload t h ~remove =
  if remove <= 0 || not (active h) then 0
  else if not (fenced t (intent h).be_server) then 0
  else begin
    let before = List.length (intent h).fes in
    apply t
      (Policy.Scale_in_offload { id = h.id; remove; pool = pool t ~be_server:(intent h).be_server });
    before - List.length (intent h).fes
  end

(* ------------------------------------------------------------------ *)
(* Offload (§4.2.1) *)

and offload_vnic t ~server ~vnic ?(num_fes = Policy.initial_fes) ?(version_filter = fun _ -> true) () =
  match Fabric.vswitch_opt t.fabric server with
  | None -> Error "no vSwitch on this server"
  | Some _ when not (fenced t server) -> Error "fenced: stale controller epoch"
  | Some _ when Policy.find_key t.view (server, Vnic.id_to_int vnic) <> None ->
    Error "vNIC already offloaded"
  | Some vs -> (
    match (Vswitch.ruleset vs vnic, Vswitch.vnic_info vs vnic) with
    | None, _ -> Error "vNIC has no local rule tables"
    | _, None -> Error "unknown vNIC"
    | Some rs, Some vnic_rec -> (
      let h = handle t ~vnic:vnic_rec ~vni:(Ruleset.vni rs) ~rs ~be:None in
      let pool = pool t ~be_server:server in
      match
        decide t
          (Policy.Offload
             { server; vnic; addr = Vnic.addr vnic_rec; num_fes; avoid = []; version_ok = version_filter;
               pool; node = h })
      with
      | [ Policy.Push { fes; _ } ] ->
        t.offload_events <- t.offload_events + 1;
        (* Stage 1: push the rule tables to every FE; stage 2 starts
           one config RPC after every push resolved. *)
        push_tables t h fes ~accept:(fun ok s -> ok && provision_fe t h s) (fun sim fes ->
            ignore (Sim.schedule sim ~delay:(rpc t) (activate t h vs fes) : Sim.handle));
        Ok h
      | _ -> Error "no idle vSwitches available as FEs"))

(* Stage 2: BE locations, then the gateway and learning; the final
   stage drops the local tables after the retention window.  No FE
   accepted the tables: the offload aborts. *)
and activate t h vs fes sim =
  if active h && t.alive then begin
    if fes = [] then retire t h (Policy.Pushed { id = h.id; fes })
    else begin
      apply t (Policy.Pushed { id = h.id; fes });
      t.fes_provisioned <- t.fes_provisioned + List.length fes;
      let be =
        install_be t ~vs ~vnic:h.vnic ~vni:h.vni ~fes:(fe_ips t fes)
          ~fallback_ruleset:(Some h.saved_ruleset)
      in
      h.be <- Some be;
      registry_sync t h;
      ignore
        (Sim.schedule sim ~delay:(rpc t) (fun sim' ->
             if active h then begin
               let done_at = Sim.now sim' +. update_routing t (intent h) in
               apply t (Policy.Activated { id = h.id; at = done_at });
               Stats.Histogram.record t.completion_ms ((done_at -. h.triggered_at) *. 1000.0);
               ignore
                 (Sim.schedule sim' ~delay:retention (fun _ ->
                      if active h && not (intent h).falling_back then begin
                        Vswitch.drop_ruleset vs h.vnic.Vnic.id;
                        Be.set_stage be Be.Final
                      end)
                   : Sim.handle)
             end)
          : Sim.handle)
    end
  end

(* ------------------------------------------------------------------ *)
(* SLO-driven elasticity: observed P99 remote-hop latency fed to the
   {!Slo} decision core once per report tick. *)

let slo_tick t =
  match t.slo_state with
  | None -> ()
  | Some slo ->
    let samples =
      List.fold_left
        (fun acc (o : offload Policy.offload) ->
          match o.node.be with
          | Some be when not (Be.closed be) -> List.rev_append (Be.drain_hop_latencies be) acc
          | Some _ | None -> acc)
        [] (Policy.offloads t.view)
    in
    let p99 = if samples = [] then None else Some (Stats.percentile (Array.of_list samples) 99.0) in
    let pool = Policy.fe_pool t.view in
    t.slo_pool <- List.length pool;
    if pool <> [] then begin
      let suspects = List.length (List.filter (fun s -> Monitor.is_suspect t.monitor ~key:s) pool) in
      apply t (Policy.Slo (Slo.observe slo ~now:(Sim.now t.sim) ~p99 ~pool:t.slo_pool ~suspects))
    end

(* ------------------------------------------------------------------ *)
(* Crash–restart reconciliation (DESIGN.md §13).  [note_crash] is
   node-truth bookkeeping: the crashed node's BE tracker and FE blobs are
   gone, whichever controller observes it.  [reconcile_server] is the
   control-plane half: on reboot the live primary re-pushes intent
   behind one config RPC. *)

let note_crash t sid =
  Option.iter Fe.reset (fe_service t sid);
  List.iter
    (fun (o : offload Policy.offload) ->
      match o.node.be with
      | Some be when o.be_server = sid && not (Be.closed be) -> Be.crash be
      | Some _ | None -> ())
    (Policy.offloads t.view);
  apply t (Policy.Crashed sid)

let reconcile_server t sid =
  if t.alive then begin
    t.reconciles <- t.reconciles + 1;
    rpc_to t sid (fun ok ->
        if ok then begin
          let ids f = List.filter_map (fun (o : offload Policy.offload) -> if f o then Some o.id else None) in
          (* The FE service re-requests provisioning; the BE re-advertises
             its offloads (the pre-crash tracker is closed for good). *)
          let fe_unserved =
            match fe_service t sid with
            | None -> []
            | Some fe ->
              Fe.reattach fe;
              ids (fun o -> not (Fe.serves fe o.addr)) (Policy.offloads t.view)
          in
          let be_closed =
            if Fabric.vswitch_opt t.fabric sid = None then []
            else
              ids
                (fun o -> match o.node.be with Some be -> Be.closed be | None -> false)
                (Policy.offloads t.view)
          in
          apply t (Policy.Restarted { server = sid; fe_unserved; be_closed })
        end)
  end

let check_conservation t = Policy.conserved t.view ~health:(health t)

let report_tick t =
  List.iter
    (fun s ->
      match Fabric.vswitch_opt t.fabric s with
      | None -> ()
      | Some vs -> apply t (Policy.Report (node_report t s vs)))
    (servers t);
  (* Anti-entropy sweep (DESIGN.md §13) and idle fallback, piggybacked
     on the report interval. *)
  apply t
    (Policy.Tick
       { health = List.map (fun (o : offload Policy.offload) -> (o.id, health t o)) (Policy.offloads t.view) });
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
(* Tenant rule updates (§3.2.2): one master mutation, fanned out to
   every replica, with cached flows invalidated everywhere. *)

let update_tenant_rules t h f =
  let o = intent h in
  if fenced t o.be_server then begin
    let f rs =
      f rs;
      (* The mutation may have gone through table handles (e.g. the ACL)
         that do not bump the generation themselves. *)
      Ruleset.bump_generation rs
    in
    f h.saved_ruleset;
    (* BE-local tables exist during dual-running or after fallback began. *)
    Option.iter
      (fun vs ->
        Option.iter
          (fun rs ->
            if rs != h.saved_ruleset then f rs;
            Vswitch.invalidate_cached_flows vs h.vnic.Vnic.id;
            ignore (Vswitch.sync_rule_memory vs h.vnic.Vnic.id : Admission.t))
          (Vswitch.ruleset vs h.vnic.Vnic.id))
      (Fabric.vswitch_opt t.fabric o.be_server);
    List.iter
      (fun s ->
        Option.iter
          (fun fe ->
            rpc_to t s (fun ok ->
                match Fe.ruleset_of fe o.addr with
                | Some replica when ok ->
                  f replica;
                  Fe.invalidate_cached_flows fe o.addr
                | Some _ | None -> ()))
          (fe_service t s))
      o.fes
  end

(* ------------------------------------------------------------------ *)
(* BE relocation (§7.2): the VM live-migrated; only the FE-side BE
   location config changes.  The offloaded tables never move, and the
   vNIC-server entries (which point at the FEs) stay valid, which is why
   this takes effect in under a millisecond. *)

let migrate_be t h ~to_server =
  let o = intent h in
  if not (active h) then Error "offload not active"
  else if not (fenced t o.be_server) || not (fenced t to_server) then
    Error "fenced: stale controller epoch"
  else begin
    match (Fabric.vswitch_opt t.fabric o.be_server, Fabric.vswitch_opt t.fabric to_server) with
    | None, _ -> Error "old BE server has no vSwitch"
    | _, None -> Error "target server has no vSwitch"
    | Some old_vs, Some new_vs ->
      if Vswitch.find_vnic new_vs o.addr <> None then Error "target already hosts this vNIC"
      else begin
        (* Recreate the vNIC on the target with only the BE residual
           footprint; the hypervisor brings the session states along. *)
        let shim =
          Ruleset.create ~vni:h.vni ~fixed_overhead_bytes:Params.be_residual_bytes_per_vnic ()
        in
        match Vswitch.add_vnic new_vs h.vnic shim with
        | Error _ -> Error "target lacks memory for BE residual state"
        | Ok () ->
          Vswitch.drop_ruleset new_vs h.vnic.Vnic.id;
          (* Carry the states (the VM migration copies them). *)
          Option.iter
            (fun target ->
              Vswitch.iter_sessions old_vs h.vnic.Vnic.id (fun key session ->
                  match session.Vswitch.state with
                  | Some _ ->
                    ignore
                      (Vswitch.store_session new_vs target key
                         { session with Vswitch.pre = None }
                        : Admission.t)
                  | None -> ()))
            (Vswitch.sessions new_vs h.vnic.Vnic.id);
          let be' = successor_be t h new_vs in
          (match h.be with Some b -> Be.uninstall b | None -> ());
          Vswitch.remove_vnic old_vs h.vnic.Vnic.id;
          h.be <- Some be';
          apply t (Policy.Migrate { id = h.id; to_server });
          registry_sync t h;
          (* The sub-millisecond part: point every FE at the new BE. *)
          let new_ip = underlay t to_server in
          let point fe = Fe.set_be fe o.addr new_ip in
          List.iter
            (fun s ->
              Option.iter
                (fun fe -> ignore (Sim.schedule t.sim ~delay:0.0005 (fun _ -> point fe) : Sim.handle))
                (fe_service t s))
            o.fes;
          Ok ()
      end
  end

(* ------------------------------------------------------------------ *)
(* Elephant-flow pinning (§7.5) *)

let pin_elephant t h flow =
  if not (active h) then Error "offload not active"
  else if not (fenced t (intent h).be_server) then Error "fenced: stale controller epoch"
  else begin
    match decide t (Policy.Pin { id = h.id; pool = pool t ~be_server:(intent h).be_server }) with
    | [ Policy.Pin_flow { server = s; _ } ] ->
      if not (provision_fe t h s) then Error "candidate FE lacks memory for the tables"
      else begin
        Option.iter (fun be -> Be.pin_flow be flow (underlay t s)) h.be;
        Ok s
      end
    | _ -> Error "no idle vSwitch available for a dedicated FE"
  end

(* ------------------------------------------------------------------ *)
(* Construction and controller liveness (HA, DESIGN.md §13) *)

let create ?(config = default_config) ~fabric ~rng () =
  let sim = Fabric.sim fabric in
  let { report_interval; auto_offload; auto_scale; auto_fallback; placement; slo } = config in
  let t =
    { sim; fabric; cfg = config; rng;
      view = Policy.create { report_interval; auto_offload; auto_scale; auto_fallback; placement };
      fe_services = Hashtbl.create 32; monitor = Monitor.create ~sim;
      completion_ms = Stats.Histogram.create ();
      offload_events = 0; scale_out_events = 0; fes_provisioned = 0;
      rpc_attempts = 0; rpc_retries = 0; rpc_failures = 0;
      started = false; alive = true; epoch = 1; registry = None;
      fenced_rejected = 0; stale_discards = 0; reconciles = 0; repairs = 0; telemetry = None;
      slo_state = Option.map (fun c -> Slo.create ~config:c ~now:(Sim.now sim) ()) slo;
      slo_pool = 0 }
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
        if Policy.find_key t.view key = None then begin
          incr adopted;
          let h = handle t ~vnic:e.r_vnic ~vni:e.r_vni ~rs:e.r_ruleset ~be:e.r_be in
          apply t
            (Policy.Adopt
               { key; addr = Vnic.addr e.r_vnic; be_server = e.r_be_server; fes = e.r_fe_servers;
                 now = h.triggered_at; node = h });
          List.iter (watch_fe_host t) e.r_fe_servers
        end)
      r.Registry.offloads;
    !adopted

let fenced_rejected t = t.fenced_rejected
let stale_discards t = t.stale_discards
let reconciles t = t.reconciles
let repairs t = t.repairs

(* ------------------------------------------------------------------ *)
(* Introspection *)

let find_offload t ~server ~vnic =
  Option.map (fun (o : offload Policy.offload) -> o.node) (Policy.find_key t.view (server, Vnic.id_to_int vnic))

(* Newest first. *)
let offloads t = List.rev_map (fun (o : offload Policy.offload) -> o.node) (Policy.offloads t.view)
let offload_vnic_id h = h.vnic.Vnic.id
let offload_be_server h = (intent h).be_server
let offload_fe_servers h = (intent h).fes

let offload_be h =
  match h.be with
  | Some be -> be
  | None -> failwith "Controller.offload_be: dual-running stage not reached yet"

let offload_stage h = match h.be with Some be -> Be.stage be | None -> Be.Dual
let offload_completed_at h = (intent h).completed_at
let slo t = t.slo_state
let slo_pool_size t = List.length (Policy.fe_pool t.view)
let completion_times_ms t = t.completion_ms
let offload_events t = t.offload_events
let scale_out_events t = t.scale_out_events
let fes_provisioned t = t.fes_provisioned
let rpc_attempts t = t.rpc_attempts
let rpc_retries t = t.rpc_retries
let rpc_failures t = t.rpc_failures
let overload_occurrences t s = Policy.overloads t.view s
let total_overload_occurrences t = Policy.total_overloads t.view

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  t.telemetry <- Some reg;
  List.iter
    (fun (name, f) -> T.register_counter reg ~name:("controller/" ^ name) f)
    [ ("offload_events", fun () -> t.offload_events);
      ("scale_out_events", fun () -> t.scale_out_events);
      ("fes_provisioned", fun () -> t.fes_provisioned);
      ("overload_occurrences", fun () -> total_overload_occurrences t);
      ("rpc_attempts", fun () -> t.rpc_attempts); ("rpc_retries", fun () -> t.rpc_retries);
      ("rpc_failures", fun () -> t.rpc_failures); ("fenced_rejected", fun () -> t.fenced_rejected);
      ("stale_discards", fun () -> t.stale_discards); ("reconciles", fun () -> t.reconciles);
      ("repairs", fun () -> t.repairs) ];
  T.register_gauge reg ~name:"controller/epoch" (fun () -> float_of_int t.epoch);
  T.register_gauge reg ~name:"controller/active_offloads" (fun () ->
      float_of_int (List.length (offloads t)));
  T.register_histogram reg ~name:"controller/completion_ms" t.completion_ms;
  (match t.slo_state with
  | Some slo ->
    Slo.register_telemetry slo ~prefix:"controller/slo" reg;
    T.register_gauge reg ~name:"controller/slo/pool_size" (fun () -> float_of_int t.slo_pool)
  | None -> ());
  Monitor.register_telemetry t.monitor reg;
  (* Components the controller already spawned; later ones register at
     creation via [t.telemetry]. *)
  Hashtbl.iter (fun _ fe -> Fe.register_telemetry fe reg) t.fe_services;
  List.iter
    (fun (o : offload Policy.offload) -> Option.iter (fun be -> Be.register_telemetry be reg) o.node.be)
    (Policy.offloads t.view)

let pp_status ppf t =
  let offs = offloads t in
  Format.fprintf ppf
    "@[<v>%d active offload(s); %d offload event(s), %d scale-out(s), %d FE(s) provisioned@,"
    (List.length offs) t.offload_events t.scale_out_events t.fes_provisioned;
  List.iter
    (fun h ->
      Format.fprintf ppf "  %a: BE on server %d (%s), FEs on [%s]" Vnic.pp h.vnic
        (offload_be_server h)
        (match h.be with
        | Some be -> ( match Be.stage be with Be.Final -> "final" | Be.Dual -> "dual-running")
        | None -> "configuring")
        (String.concat "; " (List.map string_of_int (offload_fe_servers h)));
      (match h.be with
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
  Format.fprintf ppf
    "  monitor: %d watched, %d probes, %d failure(s) declared, %d mass-failure suspicion(s)@]"
    (Monitor.watched t.monitor) (Monitor.probes_sent t.monitor)
    (Monitor.failures_declared t.monitor)
    (Monitor.mass_failure_suspected t.monitor)
