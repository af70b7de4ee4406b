open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_fabric
module Controller = Nezha_core.Controller
module Placement = Nezha_core.Placement
module Policy = Nezha_core.Policy

(* Region-scale bridge: thousands of servers, rack-aligned onto the
   shards of a [Sim.Sharded] cluster, each with a Region-sampled demand
   profile whose load is modeled per server, and a fleet controller on
   shard 0 — a second effect layer over [Policy] (DESIGN.md §16) —
   placing offloads against them.  A server is its demand model alone:
   the region builds no vSwitch, SmartNIC or fabric.  The headline
   output is Fig. 13's "overloads before/after Nezha", measured from
   the event simulation — an overload *occurs* only when a demand spike
   outruns report -> detect -> place -> push -> activate.

   Shard-isolation contract (DESIGN.md §10): every cross-server
   interaction is a [Sharded.send] with delay >= the cluster lookahead,
   which here is the control-plane RPC latency — reports up to the
   controller, activation pushes and restores back down, each carrying
   its payload.  Demand ticks, flow-churn timers and overload accounting
   are purely shard-local; the only cross-shard *reads* are of data
   frozen at setup (profiles, spike schedules, topology).  That makes
   runs independent of the shard count, not just replayable. *)

type config = {
  racks : int;
  servers_per_rack : int;
  shards : int;
  seed : int;
  duration : float;  (** one compressed "day", sim seconds *)
  tick : float;  (** demand-evaluation period per server *)
  flow_timers : int;  (** sampled live-flow churn timers per server *)
  nezha : bool;  (** controller acts (false = "before" run) *)
  report_interval : float;
  scan_interval : float;
  hotspot_quantile : float;  (** CPS quantile above which spikes occur *)
  spikes_per_day : float;  (** Poisson mean per hotspot (Fig. 13) *)
  ramp_median : float;  (** compressed spike ramp median, seconds *)
  hold : float;  (** time a spike holds its peak *)
  (* --- crash-storm chaos (DESIGN.md §13) --- *)
  crash_rate : float;  (** Poisson mean crashes per server per day (0 = off) *)
  reboot_delay : float;  (** crash -> process back up *)
  resync_delay : float;  (** controller re-push latency on re-advertisement *)
  ctl_crash_at : float option;  (** primary controller crash instant *)
  ctl_failover : float;  (** lease expiry -> standby takeover delay *)
}

let default_config =
  {
    racks = 250;
    servers_per_rack = 8;
    shards = 8;
    seed = 42;
    duration = 30.0;
    tick = 0.02;
    flow_timers = 16;
    nezha = true;
    report_interval = 0.25;
    scan_interval = 0.25;
    hotspot_quantile = 0.97;
    spikes_per_day = 3.0;
    ramp_median = 12.0;
    hold = 3.0;
    crash_rate = 0.0;
    reboot_delay = 1.0;
    resync_delay = 0.1;
    ctl_crash_at = None;
    ctl_failover = 1.0;
  }

(* Model constants.  The offload policy itself (threshold, FE count and
   ceilings, overload level) is [Policy]'s. *)
let flow_mean = 1.0 (* mean flow lifetime driving churn, s *)
let ctl_latency = 0.01 (* control-plane RPC latency = cluster lookahead *)
let keep_share = 0.3 (* demand share the BE keeps once offloaded *)
let ramp_sigma = 0.8 (* lognormal sigma of a spike's ramp *)
let rpc_rtt = 0.002 (* one control-plane RPC round trip, s *)

type result = {
  servers : int;
  vnics_modeled : int;
  flows_modeled : int;
  hotspots : int;
  events : int;  (** simulation events executed, cluster-wide *)
  messages : int;  (** cross-shard mailbox deliveries *)
  ticks : int;
  flow_expiries : int;
  overloads : int;  (** overload episodes (Fig. 13 occurrences) *)
  overload_ticks : int;
  detections : int;
  activations : int;
  packets_modeled : float;  (** demand-rate x time packet proxy *)
  pool_reused : int;
  pool_fresh : int;
  crashes : int;  (** server crash events executed (storm) *)
  restarts : int;  (** reboot completions *)
  mttr_p50 : float;  (** crash -> intent fully restored, seconds *)
  mttr_p99 : float;
  blackholed_ticks : int;  (** demand ticks evaluated while the server was down *)
  late_blackholed : int;
      (** blackholed ticks after the convergence deadline — must be 0 *)
  ctl_takeovers : int;  (** standby takeovers after a primary crash *)
  digest : int;  (** order-insensitive run fingerprint *)
}

type spike = { t0 : float; ramp : float; peak_add : float; hold_s : float }

(* Written on every demand tick, so it sits in an all-float record: the
   tick stores an unboxed double instead of pointing a long-lived server
   at a young box that every minor collection would promote. *)
type tally = { mutable packets : float }

type srv = {
  sid : int;
  sim : Sim.t;
  base_cpu : float;
  mem : float;
  spikes : spike array;
  rng : Rng.t;  (** private stream: flow-churn lifetimes *)
  mutable keep : float;  (** 1.0 until an offload activates *)
  mutable absorbed : (int * float) list;  (** (be server, demand share) as FE *)
  mutable over : bool;
  mutable episodes : int;
  mutable over_ticks : int;
  mutable ticks : int;
  mutable flow_expiries : int;
  tally : tally;  (** modeled packets served *)
  vnics_modeled : int;
  flows_modeled : int;
  (* crash-storm state (shard-local; crash schedule frozen at setup) *)
  crash_times : float array;
  mutable down : bool;
  mutable incarnation : int;  (** bumped per crash; stamps re-advertisements *)
  mutable crashes : int;
  mutable restarts : int;
  mutable blackholed : int;
  mutable late_blackholed : int;
  mutable mttr : float list;  (** newest first; per-server, merged in sid order *)
}

(* Spike contribution at [now]: linear ramp up over [ramp], hold at the
   peak, symmetric ramp down.  Pure over the setup-frozen schedule, so
   an FE on another shard may evaluate its BE's demand without touching
   mutable state. *)
let[@inline] spike_add spikes now =
  let acc = ref 0.0 in
  for i = 0 to Array.length spikes - 1 do
    let s = spikes.(i) in
    let u = now -. s.t0 in
    if u > 0.0 then
      if u < s.ramp then acc := !acc +. (s.peak_add *. u /. s.ramp)
      else if u < s.ramp +. s.hold_s then acc := !acc +. s.peak_add
      else if u < (2.0 *. s.ramp) +. s.hold_s then
        acc := !acc +. (s.peak_add *. (1.0 -. ((u -. s.ramp -. s.hold_s) /. s.ramp)))
  done;
  !acc

let[@inline] own_demand srv now = srv.base_cpu +. (spike_add srv.spikes now *. srv.keep)

let[@inline] effective srvs srv now =
  let acc = ref (own_demand srv now) and rest = ref srv.absorbed and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | (be, share) :: tl ->
      acc := !acc +. (share *. spike_add srvs.(be).spikes now);
      rest := tl
  done;
  !acc

(* ------------------------------------------------------------------ *)

type ctl = {
  reported : float array;  (** report mailbox: last CPU per server *)
  rngs : Rng.t array;  (** per-server push-time streams, keyed by id *)
  mutable view : unit Policy.view;
  mutable pushing : int list;  (** FEs of the pushes in flight *)
  mutable down : bool;  (** primary crashed, standby not yet up *)
  mutable takeovers : int;
  mutable pending_readverts : (int * int * float) list;
      (** (server, incarnation, crash time) arrived while down *)
}

let run cfg =
  if cfg.shards < 1 then invalid_arg "Region_sim.run: shards must be >= 1";
  let n = cfg.racks * cfg.servers_per_rack in
  let topo = Topology.create ~racks:cfg.racks ~servers_per_rack:cfg.servers_per_rack in
  let cluster =
    Sim.Sharded.create ~capacity:4096 ~timer_tick:5e-3 ~timer_slots:512
      ~shards:cfg.shards ~lookahead:ctl_latency ()
  in
  let shard_of sid = Topology.rack_of topo sid mod cfg.shards in
  let ctl_sim = Sim.Sharded.shard cluster 0 in
  let setup_rng = Rng.create cfg.seed in
  let profiles = Region.sample_fleet setup_rng ~n in
  let hotspot_cut = Region.cps_demand_quantile cfg.hotspot_quantile in
  let hotspots = ref 0 in
  let srvs =
    Array.init n (fun sid ->
        let p = profiles.(sid) in
        let srng = Rng.create (cfg.seed lxor (0x9e3779b9 * (sid + 1))) in
        let spikes =
          if p.Region.cps <= hotspot_cut then [||]
          else begin
            incr hotspots;
            let k = Region.poisson srng cfg.spikes_per_day in
            Array.init k (fun _ ->
                let t0 = Rng.float srng cfg.duration in
                let ramp =
                  cfg.ramp_median *. Rng.lognormal srng ~mu:0.0 ~sigma:ramp_sigma
                in
                let peak = Policy.overload_level +. 0.05 +. Rng.float srng 0.25 in
                { t0; ramp; peak_add = peak -. p.Region.cpu; hold_s = cfg.hold })
          end
        in
        (* Crash schedule: frozen at setup from the same private stream
           (Poisson count, times inside the window that lets every
           recovery converge before the day ends). *)
        let crash_times =
          if cfg.crash_rate <= 0.0 then [||]
          else begin
            let k = Region.poisson srng cfg.crash_rate in
            let ts =
              Array.init k (fun _ ->
                  (0.05 *. cfg.duration) +. Rng.float srng (0.65 *. cfg.duration))
            in
            Array.sort compare ts;
            ts
          end
        in
        {
          sid;
          sim = Sim.Sharded.shard cluster (shard_of sid);
          base_cpu = p.Region.cpu;
          mem = p.Region.mem;
          spikes;
          rng = srng;
          keep = 1.0;
          absorbed = [];
          over = false;
          episodes = 0;
          over_ticks = 0;
          ticks = 0;
          flow_expiries = 0;
          tally = { packets = 0.0 };
          vnics_modeled = 1 + int_of_float (p.Region.vnics *. 511.0);
          flows_modeled = int_of_float (p.Region.flows *. 1e6);
          crash_times;
          down = false;
          incarnation = 0;
          crashes = 0;
          restarts = 0;
          blackholed = 0;
          late_blackholed = 0;
          mttr = [];
        })
  in
  (* Every crash that can happen has finished recovering by this
     instant; blackholed ticks past it are a convergence failure. *)
  let convergence_deadline =
    let last =
      Array.fold_left
        (fun acc (s : srv) ->
          Array.fold_left (fun a t -> Float.max a t) acc s.crash_times)
        0.0 srvs
    in
    if last = 0.0 then 0.0
    else
      last +. cfg.reboot_delay +. cfg.resync_delay +. cfg.ctl_failover
      +. (4.0 *. ctl_latency) +. 0.5
  in
  let ctl =
    { reported = Array.map (fun s -> s.base_cpu) srvs;
      rngs = Array.init n (fun sid -> Rng.create (cfg.seed lxor (0x85ebca6b * (sid + 1))));
      view =
        Policy.create
          { report_interval = cfg.report_interval; auto_offload = true; auto_scale = false;
            auto_fallback = false; placement = Placement.Least_loaded };
      pushing = []; down = false; takeovers = 0; pending_readverts = [] }
  in
  (* --- demand ticks, flow churn and reports ------------------------- *)
  let pps_per_unit = 1e6 in
  let tick (srv : srv) now =
    srv.ticks <- srv.ticks + 1;
    if srv.down then begin
      (* Nobody home: the server's demand is blackholed, not served
         (and not an overload — there is no vSwitch to overload). *)
      srv.blackholed <- srv.blackholed + 1;
      if now > convergence_deadline then srv.late_blackholed <- srv.late_blackholed + 1;
      srv.over <- false
    end
    else begin
      let eff = effective srvs srv now in
      srv.tally.packets <- srv.tally.packets +. (eff *. pps_per_unit *. cfg.tick);
      if eff > Policy.overload_level then begin
        srv.over_ticks <- srv.over_ticks + 1;
        if not srv.over then begin
          srv.over <- true;
          srv.episodes <- srv.episodes + 1
        end
      end
      else srv.over <- false
    end
  in
  (* First ticks are staggered over 64 phases so 2,000 servers don't
     land on one instant.  The servers of one shard that share a phase
     share every tick instant, so one loop ticks them all, in id order.
     A tick touches only its own server and setup-frozen data, so this
     is the same run as a loop per server. *)
  let phases = 64 in
  let groups = Array.make (cfg.shards * phases) [] and on_shard = Array.make cfg.shards [] in
  for sid = n - 1 downto 0 do
    let g = (shard_of sid * phases) + (sid mod phases) in
    groups.(g) <- srvs.(sid) :: groups.(g);
    on_shard.(shard_of sid) <- srvs.(sid) :: on_shard.(shard_of sid)
  done;
  Array.iteri
    (fun g members ->
      match Array.of_list members with
      | [||] -> ()
      | members ->
        let offset = cfg.tick *. float_of_int (g mod phases) /. float_of_int phases in
        ignore
          (Sim.timeout members.(0).sim ~delay:offset (fun sim ->
               let now = Sim.now sim in
               for i = 0 to Array.length members - 1 do
                 tick members.(i) now
               done;
               if now +. cfg.tick <= cfg.duration then Some cfg.tick else None)
            : Sim.timer))
    groups;
  (* Flow churn: [flow_timers] concurrent lifetimes per server, each
     re-arming with an exponential draw from the server's private
     stream. *)
  Array.iter
    (fun (srv : srv) ->
      for _ = 1 to cfg.flow_timers do
        let delay0 = Rng.exponential srv.rng ~mean:flow_mean in
        let act sim =
          srv.flow_expiries <- srv.flow_expiries + 1;
          let d = Rng.exponential srv.rng ~mean:flow_mean in
          if Sim.now sim +. d <= cfg.duration then Some d else None
        in
        ignore (Sim.timeout srv.sim ~delay:delay0 act : Sim.timer)
      done)
    srvs;
  (* Utilization reports up to the controller shard, one loop per shard
     sending its servers' reports in id order (a crashed server reports
     nothing — the controller keeps the last one). *)
  Array.iter
    (fun members ->
      match Array.of_list members with
      | [||] -> ()
      | members ->
        Sim.every members.(0).sim ~period:cfg.report_interval (fun sim ->
            let now = Sim.now sim in
            Array.iter
              (fun (srv : srv) ->
                if not srv.down then begin
                  let eff = effective srvs srv now in
                  Sim.Sharded.send sim ~dst:0 ~delay:ctl_latency (fun _ ->
                      ctl.reported.(srv.sid) <- eff)
                end)
              members;
            now < cfg.duration))
    on_shard;
  (* --- fleet controller on shard 0: an effect layer over Policy --- *)
  let step input = let view, intents = Policy.step ctl.view input in ctl.view <- view; intents in
  let share fes = (1.0 -. keep_share) /. float_of_int (List.length fes) in
  let activated (o : unit Policy.offload) = o.completed_at <> None in
  (* The tables reach the FEs [delay] after the decision; then the BE's
     keep-share and each FE's duty go down to their shards. *)
  let push (o : unit Policy.offload) fes =
    let be = o.be_server in
    let state_s = (5.5e6 +. (profiles.(be).Region.flows *. 94.5e6)) /. Controller.push_bytes_per_s in
    let delay = (2.0 *. rpc_rtt) +. (state_s *. Rng.lognormal ctl.rngs.(be) ~mu:0.0 ~sigma:0.35) in
    ctl.pushing <- fes @ ctl.pushing;
    ignore
      (Sim.schedule ctl_sim ~delay (fun csim ->
           ctl.pushing <- List.filter (fun s -> not (List.mem s fes)) ctl.pushing;
           ignore (step (Policy.Pushed { id = o.id; fes }));
           ignore (step (Policy.Activated { id = o.id; at = Sim.now csim }));
           let send dst f =
             Sim.Sharded.send csim ~dst:(shard_of dst) ~delay:ctl_latency (fun _ -> f srvs.(dst))
           in
           send be (fun s -> s.keep <- keep_share);
           List.iter (fun f -> send f (fun s -> s.absorbed <- (be, share fes) :: s.absorbed)) fes)
        : Sim.handle)
  in
  (* Candidate facts are the controller's own: the report mailbox and
     the setup-frozen memory.  Least-loaded never draws from [draw].
     Most servers report a constant load, so a scan refreshes only the
     facts whose report moved: rebuilding all 2,000 promoted them. *)
  let candidate s : Policy.candidate =
    { server = s; rack = Topology.rack_of topo s; vswitch = true; crashed = false; version = 0;
      peek = (ctl.reported.(s), srvs.(s).mem); fe_served = None; suspect = false }
  in
  let candidates = Array.init n candidate in
  (* A server offloads its vNIC 1 (the key [find_key] looks up), at
     this overlay address. *)
  let addr_of sid =
    { Vnic.Addr.vpc = Vpc.make (sid + 1);
      ip = Ipv4.of_octets 10 (sid lsr 16) ((sid lsr 8) land 255) (sid land 255) }
  in
  let scan () =
    let moved s (c : Policy.candidate) = if fst c.peek <> ctl.reported.(s) then candidates.(s) <- candidate s in
    let fresh = lazy (Array.iteri moved candidates) in
    for sid = 0 to n - 1 do
      (* One utilization per server, its CPU: memory pressure is not an
         offload trigger here.  An offloaded server needs no candidates. *)
      if Policy.wants_offload ~cpu:ctl.reported.(sid) ~mem:0.0 && Policy.find_key ctl.view (sid, 1) = None
      then begin
        Lazy.force fresh;
        (* An FE takes one duty: without Fig. 8's scale-out (off here) a
           second could only overload it.  No intent: no idle FE this
           scan (retried next period). *)
        let be_rack = Topology.rack_of topo sid in
        step
          (Policy.Offload
             { server = sid; vnic = Vnic.id_of_int 1; addr = addr_of sid; num_fes = Policy.initial_fes;
               avoid = Policy.fe_pool ctl.view @ ctl.pushing; version_ok = (fun _ -> true); node = ();
               pool = { now = Sim.now ctl_sim; draw = ctl.rngs.(sid); be_rack; candidates } })
        |> List.iter (function Policy.Push { o; fes } -> push o fes | _ -> ())
      end
    done
  in
  Sim.every ctl_sim ~period:cfg.scan_interval (fun sim ->
      if cfg.nezha && not ctl.down then scan ();
      Sim.now sim < cfg.duration);
  (* --- crash storm (DESIGN.md §13) ---------------------------------- *)
  (* Reconciliation, controller side: a rebooted server re-advertises
     (stamped with its boot incarnation); [resync_delay] later the
     controller steps [Restarted] and sends the restored BE keep-share
     and FE duties down in one message.  It applies only if the server
     has not crashed again (incarnation fence); MTTR is crash -> restore. *)
  let readvert sid inc t_crash =
    if ctl.down then
      ctl.pending_readverts <- (sid, inc, t_crash) :: ctl.pending_readverts
    else
      ignore
        (Sim.schedule ctl_sim ~delay:cfg.resync_delay (fun csim ->
             (* A crash loses every replica and BE tracker the server held. *)
             let lost = List.filter activated (Policy.offloads ctl.view) |> List.map (fun o -> o.Policy.id) in
             let be, duties =
               List.fold_left
                 (fun (be, duties) -> function
                   | Policy.Reinstall_be _ -> (true, duties)
                   | Policy.Restore_fe { o; _ } -> (be, (o.be_server, share o.fes) :: duties)
                   | _ -> (be, duties))
                 (false, [])
                 (step (Policy.Restarted { server = sid; fe_unserved = lost; be_closed = lost }))
             in
             Sim.Sharded.send csim ~dst:(shard_of sid) ~delay:ctl_latency (fun ssim ->
                 let s = srvs.(sid) in
                 if (not s.down) && s.incarnation = inc then begin
                   if be then s.keep <- keep_share;
                   s.absorbed <- duties;
                   s.mttr <- (Sim.now ssim -. t_crash) :: s.mttr
                 end))
          : Sim.handle)
  in
  (* Node side: at the (setup-frozen) crash instant the volatile state
     vanishes — keep-share and FE duties revert to boot defaults — and
     the process is gone for [reboot_delay]; on reboot it re-advertises
     up to the controller shard. *)
  let crash_event (srv : srv) sim =
    if not srv.down then begin
      let t_crash = Sim.now sim in
      srv.down <- true;
      srv.crashes <- srv.crashes + 1;
      srv.incarnation <- srv.incarnation + 1;
      let inc = srv.incarnation in
      srv.keep <- 1.0;
      srv.absorbed <- [];
      ignore
        (Sim.schedule sim ~delay:cfg.reboot_delay (fun ssim ->
             srv.down <- false;
             srv.restarts <- srv.restarts + 1;
             Sim.Sharded.send ssim ~dst:0 ~delay:ctl_latency (fun _ ->
                 readvert srv.sid inc t_crash))
          : Sim.handle)
    end
  in
  Array.iter
    (fun (srv : srv) ->
      Array.iter
        (fun tc ->
          ignore (Sim.schedule srv.sim ~delay:tc (fun sim -> crash_event srv sim)
                   : Sim.handle))
        srv.crash_times)
    srvs;
  (* Primary-controller crash: scans stop and re-advertisements queue
     until the standby takes over [ctl_failover] later; the drain is
     sorted by server id so the takeover is shard-count invariant. *)
  (match cfg.ctl_crash_at with
  | None -> ()
  | Some tca ->
    ignore
      (Sim.schedule ctl_sim ~delay:tca (fun _ -> ctl.down <- true) : Sim.handle);
    ignore
      (Sim.schedule ctl_sim ~delay:(tca +. cfg.ctl_failover) (fun _ ->
           ctl.down <- false;
           ctl.takeovers <- ctl.takeovers + 1;
           let q = List.sort compare ctl.pending_readverts in
           ctl.pending_readverts <- [];
           List.iter (fun (sid, inc, tc) -> readvert sid inc tc) q)
        : Sim.handle));
  (* --- run ---------------------------------------------------------- *)
  Sim.Sharded.run cluster ~until:cfg.duration;
  (* --- collect ------------------------------------------------------ *)
  let mix h x = (h * 1000003) lxor x in
  let digest = ref 17 in
  let ticks = ref 0
  and flow_expiries = ref 0
  and overloads = ref 0
  and over_ticks = ref 0
  and vnics = ref 0
  and flows = ref 0
  and packets = ref 0.0
  and crashes = ref 0
  and restarts = ref 0
  and blackholed = ref 0
  and late_blackholed = ref 0
  and mttr_samples = ref [] in
  Array.iter
    (fun (srv : srv) ->
      ticks := !ticks + srv.ticks;
      flow_expiries := !flow_expiries + srv.flow_expiries;
      overloads := !overloads + srv.episodes;
      over_ticks := !over_ticks + srv.over_ticks;
      vnics := !vnics + srv.vnics_modeled;
      flows := !flows + srv.flows_modeled;
      packets := !packets +. srv.tally.packets;
      crashes := !crashes + srv.crashes;
      restarts := !restarts + srv.restarts;
      blackholed := !blackholed + srv.blackholed;
      late_blackholed := !late_blackholed + srv.late_blackholed;
      (* srv.mttr is newest-first; merged in sid order the global list
         is deterministic regardless of shard count. *)
      List.iter (fun m -> mttr_samples := m :: !mttr_samples) srv.mttr;
      digest := mix !digest srv.episodes;
      digest := mix !digest srv.over_ticks;
      digest := mix !digest srv.ticks;
      digest := mix !digest srv.flow_expiries;
      digest := mix !digest srv.crashes;
      digest := mix !digest (srv.restarts + srv.blackholed);
      List.iter
        (fun m ->
          digest :=
            mix !digest
              (Int64.to_int (Int64.logand (Int64.bits_of_float m) 0xffffffffL)))
        srv.mttr;
      digest :=
        mix !digest
          (Int64.to_int (Int64.logand (Int64.bits_of_float srv.tally.packets) 0xffffffffL)))
    srvs;
  (* Every offload the controller decided stays in its view. *)
  let detections = Policy.next_id ctl.view in
  let activations = List.length (List.filter activated (Policy.offloads ctl.view)) in
  digest := mix !digest detections;
  digest := mix !digest activations;
  digest := mix !digest ctl.takeovers;
  let mttr = Array.of_list !mttr_samples in
  let reused, fresh =
    Array.fold_left
      (fun (r, f) i ->
        let ri, fi = Sim.pool_stats (Sim.Sharded.shard cluster i) in
        (r + ri, f + fi))
      (0, 0)
      (Array.init cfg.shards (fun i -> i))
  in
  {
    servers = n;
    vnics_modeled = !vnics;
    flows_modeled = !flows;
    hotspots = !hotspots;
    events = Sim.Sharded.events_executed cluster;
    messages = Sim.Sharded.messages_delivered cluster;
    ticks = !ticks;
    flow_expiries = !flow_expiries;
    overloads = !overloads;
    overload_ticks = !over_ticks;
    detections;
    activations;
    packets_modeled = !packets;
    pool_reused = reused;
    pool_fresh = fresh;
    crashes = !crashes;
    restarts = !restarts;
    mttr_p50 = (if mttr = [||] then 0.0 else Stats.percentile mttr 50.0);
    mttr_p99 = (if mttr = [||] then 0.0 else Stats.percentile mttr 99.0);
    blackholed_ticks = !blackholed;
    late_blackholed = !late_blackholed;
    ctl_takeovers = ctl.takeovers;
    digest = !digest;
  }

(* Fig. 13 headline: the same seeded region run twice — controller
   off ("before") then on ("after").  Simulated, not closed-form: the
   "after" residue is exactly the spikes whose ramps beat activation. *)
type before_after = { before : result; after : result }

let before_after cfg =
  let before = run { cfg with nezha = false } in
  let after = run { cfg with nezha = true } in
  { before; after }

(* ------------------------------------------------------------------ *)
(* SLO-tracking run (DESIGN.md §15): a diurnal offered-load ramp (×10
   trough->peak) served by an elastic FE pool whose size is driven by
   the real {!Nezha_core.Slo} decision core over a modeled remote-hop
   P99, with FE placement through the real power-of-two-choices policy
   ({!Placement.select_p2c}).  The latency model is the standard
   queueing shape — hop P99 grows as util/(1-util) on the pool's
   per-FE utilization — so holding the latency budget *requires* the
   pool to track the ramp in both directions.

   The chaos variant cuts the BE rack's uplink for a window: every
   cross-rack pool member turns suspect at once and half the serving
   capacity vanishes.  The observed P99 explodes, which is exactly the
   bait — a naive loop would scale out into the partition and then mass
   scale-in after the heal.  The §C.2 suppression window must keep the
   pool size frozen instead ([pool_moves_in_partition] = 0).

   Deterministic by construction: one seeded rng, one synchronous tick
   loop, no wall clock. *)

module Slo = Nezha_core.Slo

type slo_config = {
  slo_seed : int;
  slo_duration : float;  (** one compressed "day", sim seconds *)
  slo_tick : float;  (** report/decision period *)
  slo_racks : int;
  slo_servers_per_rack : int;
  base_offered : float;  (** trough offered load, FE-capacity units *)
  ramp_ratio : float;  (** peak/trough offered ratio (×10) *)
  fe_capacity : float;  (** offered units one FE serves at util 1.0 *)
  base_hop : float;  (** remote-hop latency at zero utilization, s *)
  hop_noise_sigma : float;  (** lognormal sigma on the observed P99 *)
  slo : Slo.config;  (** the decision core's knobs *)
  flap_window : float;  (** reversal horizon for oscillation counting *)
  slo_partition : (float * float) option;  (** chaos: (start, duration) *)
}

let default_slo_config =
  {
    slo_seed = 42;
    slo_duration = 600.0;
    slo_tick = 1.0;
    slo_racks = 6;
    slo_servers_per_rack = 16;
    base_offered = 1.6;
    ramp_ratio = 10.0;
    fe_capacity = 1.0;
    base_hop = 0.001;
    hop_noise_sigma = 0.04;
    slo =
      {
        Slo.target_p99 = 0.005;
        band = 0.30;
        cooldown = 5.0;
        warmup = 5.0;
        min_pool = 4;
        max_pool = 48;
        max_step = 1;
        suppress_fraction = 0.15;
        suppress_hold = 20.0;
      };
    flap_window = 45.0;
    slo_partition = None;
  }

type slo_result = {
  slo_ticks : int;
  offered_ratio : float;  (** max/min offered actually swept *)
  pool_min : int;
  pool_max : int;
  pool_at_peak : int;  (** pool size at the middle of the hold phase *)
  pool_at_end : int;
  p99_peak : float;
  within_budget_fraction : float;
      (** post-warmup ticks with P99 <= target×(1+band) *)
  slo_scale_outs : int;
  slo_scale_ins : int;
  oscillations : int;
      (** direction reversals within [flap_window] of each other *)
  slo_suppressed_ticks : int;
  partition_suspects_max : int;
  pool_moves_in_partition : int;  (** must be 0: no flapping under §C.2 *)
  slo_digest : int;
}

(* Diurnal shape on [0,1]: smooth ramp up over the first 35%, hold the
   peak for 25%, symmetric ramp down, then trough. *)
let diurnal u =
  let smoothstep x = x *. x *. (3.0 -. (2.0 *. x)) in
  if u < 0.35 then smoothstep (u /. 0.35)
  else if u < 0.60 then 1.0
  else if u < 0.95 then smoothstep ((0.95 -. u) /. 0.35)
  else 0.0

let run_slo cfg =
  if cfg.ramp_ratio < 1.0 then invalid_arg "Region_sim.run_slo: ramp_ratio < 1";
  if cfg.slo_tick <= 0.0 then invalid_arg "Region_sim.run_slo: tick <= 0";
  let n = cfg.slo_racks * cfg.slo_servers_per_rack in
  let rng = Rng.create cfg.slo_seed in
  let rack_of sid = sid / cfg.slo_servers_per_rack in
  let be = 0 in
  let be_rack = rack_of be in
  let in_pool = Array.make n false in
  (* Static background load per server — the diversity the p2c draws
     discriminate on. *)
  let jitter = Array.init n (fun _ -> Rng.float rng 0.05) in
  let slo = Slo.create ~config:cfg.slo ~now:0.0 () in
  let pool_size = ref 0 in
  let members () =
    let acc = ref [] in
    for sid = n - 1 downto 0 do
      if in_pool.(sid) then acc := sid :: !acc
    done;
    !acc
  in
  (* The chaos partition severs the BE rack's ToR uplink: every pool
     member OUTSIDE the BE's rack is unreachable (suspect, serving
     nothing) until the heal. *)
  let partition_active now =
    match cfg.slo_partition with
    | Some (t0, d) -> now >= t0 && now < t0 +. d
    | None -> false
  in
  let cut now sid = partition_active now && rack_of sid <> be_rack in
  let util = ref 0.0 in
  let load sid = if in_pool.(sid) then !util +. jitter.(sid) else jitter.(sid) in
  let grow now count =
    let picked =
      Placement.select_p2c ~rng
        ~eligible:(fun sid -> sid <> be && not in_pool.(sid))
        ~same_rack:(fun sid -> rack_of sid = be_rack)
        ~load
        ~suspect:(fun sid -> cut now sid)
        ~count
        (List.init n (fun sid -> sid))
    in
    List.iter (fun sid -> in_pool.(sid) <- true) picked;
    pool_size := !pool_size + List.length picked;
    List.length picked
  in
  let shrink _now count =
    let victims =
      Placement.take count
        (Placement.evict_order ~same_rack:(fun sid -> rack_of sid = be_rack) ~load (members ()))
    in
    List.iter (fun sid -> in_pool.(sid) <- false) victims;
    pool_size := !pool_size - List.length victims;
    List.length victims
  in
  ignore (grow 0.0 cfg.slo.Slo.min_pool : int);
  let hop_p99 u =
    cfg.base_hop
    *. (1.0 +. (2.0 *. u /. Float.max 0.03 (1.0 -. Float.min u 0.97)))
  in
  let budget = cfg.slo.Slo.target_p99 *. (1.0 +. cfg.slo.Slo.band) in
  let ticks = int_of_float (cfg.slo_duration /. cfg.slo_tick) in
  let mix h x = (h * 1000003) lxor x in
  let f32 x = Int64.to_int (Int64.logand (Int64.bits_of_float x) 0xffffffffL) in
  let digest = ref 17 in
  let pool_min = ref max_int
  and pool_max = ref 0
  and pool_at_peak = ref 0
  and p99_peak = ref 0.0
  and within = ref 0
  and judged = ref 0
  and oscillations = ref 0
  and suspects_max = ref 0
  and moves_in_partition = ref 0
  and last_dir = ref 0
  and last_dir_t = ref neg_infinity
  and offered_min = ref infinity
  and offered_max = ref 0.0 in
  let peak_tick = int_of_float (0.475 *. float_of_int ticks) in
  for i = 0 to ticks - 1 do
    let now = float_of_int i *. cfg.slo_tick in
    let offered =
      cfg.base_offered
      *. (1.0 +. ((cfg.ramp_ratio -. 1.0) *. diurnal (now /. cfg.slo_duration)))
    in
    offered_min := Float.min !offered_min offered;
    offered_max := Float.max !offered_max offered;
    let ms = members () in
    let suspects = List.length (List.filter (cut now) ms) in
    suspects_max := max !suspects_max suspects;
    let effective = max 1 (List.length ms - suspects) in
    util := offered /. (float_of_int effective *. cfg.fe_capacity);
    let p99 =
      hop_p99 !util *. Rng.lognormal rng ~mu:0.0 ~sigma:cfg.hop_noise_sigma
    in
    p99_peak := Float.max !p99_peak p99;
    if now >= cfg.slo.Slo.warmup then begin
      incr judged;
      if p99 <= budget then incr within
    end;
    let pool = !pool_size in
    let dir =
      match Slo.observe slo ~now ~p99:(Some p99) ~pool ~suspects with
      | Slo.Scale_out add -> if grow now add > 0 then 1 else 0
      | Slo.Scale_in remove -> if shrink now remove > 0 then -1 else 0
      | Slo.Hold _ -> 0
    in
    if dir <> 0 then begin
      if partition_active now then incr moves_in_partition;
      if !last_dir <> 0 && dir <> !last_dir && now -. !last_dir_t <= cfg.flap_window
      then incr oscillations;
      last_dir := dir;
      last_dir_t := now
    end;
    pool_min := min !pool_min !pool_size;
    pool_max := max !pool_max !pool_size;
    if i = peak_tick then pool_at_peak := !pool_size;
    digest := mix !digest !pool_size;
    digest := mix !digest (f32 p99);
    digest := mix !digest dir
  done;
  digest := mix !digest (Slo.scale_outs slo);
  digest := mix !digest (Slo.scale_ins slo);
  {
    slo_ticks = ticks;
    offered_ratio = !offered_max /. Float.max 1e-9 !offered_min;
    pool_min = !pool_min;
    pool_max = !pool_max;
    pool_at_peak = !pool_at_peak;
    pool_at_end = !pool_size;
    p99_peak = !p99_peak;
    within_budget_fraction =
      (if !judged = 0 then 1.0 else float_of_int !within /. float_of_int !judged);
    slo_scale_outs = Slo.scale_outs slo;
    slo_scale_ins = Slo.scale_ins slo;
    oscillations = !oscillations;
    slo_suppressed_ticks = Slo.suppressed_ticks slo;
    partition_suspects_max = !suspects_max;
    pool_moves_in_partition = !moves_in_partition;
    slo_digest = !digest;
  }
