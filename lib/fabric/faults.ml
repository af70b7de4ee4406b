open Nezha_engine

type endpoint = Server of Topology.server_id | Gateway

type impairment = { loss : float; dup : float; reorder : float }

(* Max extra delay of a duplicate or a reordered packet: a few
   cross-rack latencies, enough to reorder. *)
let jitter_max = 100e-6

let perfect = { loss = 0.0; dup = 0.0; reorder = 0.0 }

let impair ?(loss = 0.0) ?(dup = 0.0) ?(reorder = 0.0) () =
  let check name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Faults.impair: %s must be a probability in [0, 1]" name)
  in
  check "loss" loss;
  check "dup" dup;
  check "reorder" reorder;
  { loss; dup; reorder }

let trivial i = i.loss <= 0.0 && i.dup <= 0.0 && i.reorder <= 0.0

(* The gateway gets code -1 so a directed link keys as an int pair. *)
let code = function Gateway -> -1 | Server s -> s

type t = {
  sim : Sim.t;
  topology : Topology.t;
  rng : Rng.t;
  mutable default_imp : impairment;
  links : (int * int, impairment) Hashtbl.t;
  cut_links : (int * int, unit) Hashtbl.t;
  cut_servers : (int, unit) Hashtbl.t;
  cut_racks : (int, unit) Hashtbl.t;
  (* Node lifecycle: a crashed server is partitioned (in-flight packets
     to it vanish at the fabric) until restarted; a crashed vSwitch
     keeps its links but its process is down (the NIC drops work).
     Either way the node's incarnation is bumped so pre-crash RPC
     replies can be recognised and discarded on arrival. *)
  crashed : (int, unit) Hashtbl.t;
  vs_crashed : (int, unit) Hashtbl.t;
  incarnations : (int, int) Hashtbl.t;
  mutable shard_lookup : (Topology.server_id -> Sim.t) option;
  mutable on_crash : (Topology.server_id -> unit) list;
  mutable on_restart : (Topology.server_id -> unit) list;
  mutable consults : int;
  mutable drops : int;
  mutable dups : int;
  mutable reorders : int;
  mutable partition_drops : int;
  mutable server_crashes : int;
  mutable server_restarts : int;
}

let create ~sim ~topology ~rng () =
  {
    sim;
    topology;
    rng;
    default_imp = perfect;
    links = Hashtbl.create 16;
    cut_links = Hashtbl.create 16;
    cut_servers = Hashtbl.create 8;
    cut_racks = Hashtbl.create 4;
    crashed = Hashtbl.create 8;
    vs_crashed = Hashtbl.create 8;
    incarnations = Hashtbl.create 8;
    shard_lookup = None;
    on_crash = [];
    on_restart = [];
    consults = 0;
    drops = 0;
    dups = 0;
    reorders = 0;
    partition_drops = 0;
    server_crashes = 0;
    server_restarts = 0;
  }

let set_default t imp = t.default_imp <- imp

let set_link t ~src ~dst imp = Hashtbl.replace t.links (code src, code dst) imp

let clear_link t ~src ~dst = Hashtbl.remove t.links (code src, code dst)

let clear_all t =
  t.default_imp <- perfect;
  Hashtbl.reset t.links;
  Hashtbl.reset t.cut_links;
  Hashtbl.reset t.cut_servers;
  Hashtbl.reset t.cut_racks

let cut_link t ~src ~dst = Hashtbl.replace t.cut_links (code src, code dst) ()
let heal_link t ~src ~dst = Hashtbl.remove t.cut_links (code src, code dst)

let cut_server t s = Hashtbl.replace t.cut_servers s ()
let heal_server t s = Hashtbl.remove t.cut_servers s

let cut_rack t ~rack = Hashtbl.replace t.cut_racks rack ()
let heal_rack t ~rack = Hashtbl.remove t.cut_racks rack

let rack_cut t = function
  | Gateway -> None
  | Server s ->
    let r = Topology.rack_of t.topology s in
    if Hashtbl.mem t.cut_racks r then Some r else None

let server_cut t = function
  | Gateway -> false
  | Server s -> Hashtbl.mem t.cut_servers s

let node_down t = function
  | Gateway -> false
  | Server s -> Hashtbl.mem t.crashed s

(* No cut and no crash installed: nothing can partition a hop, and the
   per-packet check is four length reads. *)
let no_partitions t =
  Hashtbl.length t.cut_links = 0
  && Hashtbl.length t.cut_servers = 0
  && Hashtbl.length t.cut_racks = 0
  && Hashtbl.length t.crashed = 0

let partitioned t ~src ~dst =
  (not (no_partitions t))
  && code src <> code dst
  && (Hashtbl.mem t.cut_links (code src, code dst)
     || server_cut t src || server_cut t dst
     || node_down t src || node_down t dst
     ||
     (* An isolated rack keeps its intra-rack links; anything crossing
        its boundary — including two *different* cut racks — drops. *)
     match (rack_cut t src, rack_cut t dst) with
     | None, None -> false
     | Some a, Some b -> a <> b
     | Some _, None | None, Some _ -> true)

let effective t ~src ~dst =
  if Hashtbl.length t.links = 0 then t.default_imp
  else
    match Hashtbl.find_opt t.links (code src, code dst) with
    | Some imp -> imp
    | None -> t.default_imp

type verdict = Pass | Drop | Duplicate of float | Delay of float

let consult t ~src ~dst =
  t.consults <- t.consults + 1;
  if partitioned t ~src ~dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Drop
  end
  else begin
    let imp = effective t ~src ~dst in
    (* Draw only on non-trivial links so a perfect plane never touches
       the rng (same-seed runs stay identical when chaos is off). *)
    if trivial imp then Pass
    else if imp.loss > 0.0 && Rng.chance t.rng imp.loss then begin
      t.drops <- t.drops + 1;
      Drop
    end
    else if imp.dup > 0.0 && Rng.chance t.rng imp.dup then begin
      t.dups <- t.dups + 1;
      Duplicate (Rng.float t.rng jitter_max)
    end
    else if imp.reorder > 0.0 && Rng.chance t.rng imp.reorder then begin
      t.reorders <- t.reorders + 1;
      Delay (Rng.float t.rng jitter_max)
    end
    else Pass
  end

(* Under Sim.Sharded every server has an owning shard sim; a mutation
   that touches one server must be scheduled there (scheduling it on
   the root sim would race the shard barriers and break shard-count
   invariance).  The fabric installs the lookup via [set_shard_lookup]
   when it learns the per-server sims. *)
let set_shard_lookup t f = t.shard_lookup <- Some f

let sim_for t = function
  | None -> t.sim
  | Some sid -> ( match t.shard_lookup with Some f -> f sid | None -> t.sim)

let at t ?server ~time f =
  ignore (Sim.at (sim_for t server) ~time (fun _ -> f t) : Sim.handle)

(* ------------------------------------------------------------------ *)
(* Node lifecycle. *)

let is_crashed t sid = Hashtbl.mem t.crashed sid || Hashtbl.mem t.vs_crashed sid
let incarnation t sid = Option.value (Hashtbl.find_opt t.incarnations sid) ~default:0
let on_crash t f = t.on_crash <- t.on_crash @ [ f ]
let on_restart t f = t.on_restart <- t.on_restart @ [ f ]

let bump_incarnation t sid =
  Hashtbl.replace t.incarnations sid (incarnation t sid + 1)

let fire hooks sid = List.iter (fun f -> f sid) hooks

let restart_server t sid =
  if Hashtbl.mem t.crashed sid then begin
    Hashtbl.remove t.crashed sid;
    t.server_restarts <- t.server_restarts + 1;
    fire t.on_restart sid
  end

let restart_vswitch t sid =
  if Hashtbl.mem t.vs_crashed sid then begin
    Hashtbl.remove t.vs_crashed sid;
    t.server_restarts <- t.server_restarts + 1;
    fire t.on_restart sid
  end

let crash_common t sid tbl restart reboot_after =
  if not (is_crashed t sid) then begin
    Hashtbl.replace tbl sid ();
    bump_incarnation t sid;
    t.server_crashes <- t.server_crashes + 1;
    fire t.on_crash sid;
    match reboot_after with
    | None -> ()
    | Some d ->
      ignore
        (Sim.schedule (sim_for t (Some sid)) ~delay:d (fun _ -> restart t sid)
          : Sim.handle)
  end

let crash_server t ?reboot_after sid =
  crash_common t sid t.crashed restart_server reboot_after

let crash_vswitch t ?reboot_after sid =
  crash_common t sid t.vs_crashed restart_vswitch reboot_after

let server_crashes t = t.server_crashes
let server_restarts t = t.server_restarts

let drops_injected t = t.drops
let dups_injected t = t.dups
let reorders_injected t = t.reorders
let partition_drops t = t.partition_drops
let consults t = t.consults

let active_cuts t =
  Hashtbl.length t.cut_links + Hashtbl.length t.cut_servers + Hashtbl.length t.cut_racks

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  T.register_counter reg ~name:"fabric/faults/consults" (fun () -> t.consults);
  T.register_counter reg ~name:"fabric/faults/drops_injected" (fun () -> t.drops);
  T.register_counter reg ~name:"fabric/faults/dups_injected" (fun () -> t.dups);
  T.register_counter reg ~name:"fabric/faults/reorders_injected" (fun () -> t.reorders);
  T.register_counter reg ~name:"fabric/faults/partition_drops" (fun () ->
      t.partition_drops);
  T.register_gauge reg ~name:"fabric/faults/active_cuts" (fun () ->
      float_of_int (active_cuts t));
  T.register_counter reg ~name:"fabric/faults/server_crashes" (fun () ->
      t.server_crashes);
  T.register_counter reg ~name:"fabric/faults/server_restarts" (fun () ->
      t.server_restarts);
  T.register_gauge reg ~name:"fabric/faults/crashed_now" (fun () ->
      float_of_int (Hashtbl.length t.crashed + Hashtbl.length t.vs_crashed))
