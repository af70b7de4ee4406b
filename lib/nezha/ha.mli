(** Epoch-fenced controller failover (DESIGN.md §13).

    A primary/standby {!Controller} pair shares one {!Controller.Registry}
    — the rendezvous for node-owned state (BE re-advertisements, FE
    service handles) that survives a controller crash by construction.
    A lease heartbeat watches the primary every 0.5 s; after three missed
    beats the standby takes over: it bumps the epoch past the fleet's
    high-water mark, {e broadcasts} the new epoch to the gateway and
    every vSwitch (eager fencing — lazy fencing would leave components
    the new primary never touches willing to obey the old one), rebuilds
    offload intent from the registry, and starts its own report loop.

    A revived stale primary keeps its lower epoch, so every mutating
    command it issues is rejected by the fence: it is provably unable to
    flap placements (the split-brain test in [test_recovery.ml]). *)

open Nezha_fabric

type t

val create : fabric:Fabric.t -> primary:Controller.t -> standby:Controller.t -> t
(** Wire the pair: both controllers attach the shared registry and the
    standby starts fenced one epoch below the primary.  Call {!start}
    to begin the primary's report loop and the lease watchdog.
    @raise Invalid_argument if [primary == standby]. *)

val start : t -> unit

val crash_primary : t -> unit
(** Halt the primary process (it applies nothing further; its in-flight
    RPC replies are dropped).  The lease expires three 0.5 s beats
    later and the standby takes over. *)

val revive_primary : t -> unit
(** Bring the crashed primary back with its stale in-memory state and
    stale epoch — the split-brain scenario the fence must contain. *)

val takeover : t -> unit
(** Force an immediate takeover (the watchdog calls this; exposed for
    tests). *)

val active : t -> Controller.t
(** The controller currently holding the highest epoch lease. *)

val primary : t -> Controller.t
val standby : t -> Controller.t
val registry : t -> Controller.Registry.t
val takeovers : t -> int
val epoch : t -> int
