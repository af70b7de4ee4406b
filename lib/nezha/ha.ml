open Nezha_engine
open Nezha_fabric

(* The primary's lease: a heartbeat every 0.5 s; three missed beats
   hand control to the standby. *)
let lease_interval = 0.5
let lease_misses = 3

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  primary : Controller.t;
  standby : Controller.t;
  registry : Controller.Registry.t;
  mutable missed : int;
  mutable active : Controller.t;
  mutable takeovers : int;
  mutable started : bool;
}

let create ~fabric ~primary ~standby =
  if primary == standby then invalid_arg "Ha.create: primary == standby";
  let registry = Controller.Registry.create () in
  Controller.set_registry primary registry;
  Controller.set_registry standby registry;
  (* The standby starts fenced below the primary: its commands are
     rejected everywhere until a takeover bumps it past the fleet's
     high-water mark. *)
  Controller.set_epoch standby (Controller.epoch primary - 1);
  {
    sim = Fabric.sim fabric;
    fabric;
    primary;
    standby;
    registry;
    missed = 0;
    active = primary;
    takeovers = 0;
    started = false;
  }

let registry t = t.registry
let active t = t.active
let primary t = t.primary
let standby t = t.standby
let takeovers t = t.takeovers
let epoch t = Controller.epoch t.active

(* Fence the whole fleet at the new primary's epoch, eagerly.  Lazy
   fencing (only components the new primary happens to touch) is not
   enough: a revived stale primary could still command a component the
   new one never addressed. *)
let broadcast_epoch t epoch =
  ignore (Gateway.observe_epoch (Fabric.gateway t.fabric) ~epoch : bool);
  List.iter
    (fun s ->
      match Fabric.vswitch_opt t.fabric s with
      | Some vs -> ignore (Nezha_vswitch.Vswitch.observe_epoch vs ~epoch : bool)
      | None -> ())
    (Topology.servers (Fabric.topology t.fabric))

let takeover t =
  let next =
    1 + max (Controller.epoch t.primary) (Controller.epoch t.standby)
  in
  Controller.set_epoch t.standby next;
  broadcast_epoch t next;
  ignore (Controller.adopt_from_registry t.standby : int);
  t.active <- t.standby;
  t.takeovers <- t.takeovers + 1;
  Controller.start t.standby

let start t =
  if not t.started then begin
    t.started <- true;
    Controller.start t.primary;
    Sim.every t.sim ~period:lease_interval (fun _ ->
        if t.active == t.primary then begin
          if Controller.alive t.primary then t.missed <- 0
          else begin
            t.missed <- t.missed + 1;
            if t.missed >= lease_misses then takeover t
          end
        end;
        true)
  end

let crash_primary t = Controller.halt t.primary
let revive_primary t = Controller.revive t.primary
