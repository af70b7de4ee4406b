(** The Nezha control policy (§4, Fig. 8, App. B) as a pure decision
    core, in the style of {!Slo}.

    [step view input] folds one thing the controller was told into the
    {!view} and answers the {!intent}s it implies.  The view holds only
    what the controller has been told: per server the last utilization
    report, the EWMA load, the overload count, the scaled-in holdoff and
    the slow-path and remote-work baselines; per offload one record of
    intent, in creation order, for as long as the offload is active.
    Node facts a decision needs (candidate utilization, which replicas
    still serve, whether a BE tracker survived) arrive inside the input,
    so the policy never reads a node.  {!Controller} is the effect
    layer: it builds inputs from node reads and RPC acks, and it turns
    intents into RPCs, simulator schedules, gateway routes and learning.

    Candidate selection under power-of-two-choices draws from the
    {!pool}'s [draw] stream, the controller's one stream, so every draw
    keeps its place in the event order. *)

open Nezha_engine
open Nezha_vswitch

(** {1 The paper's constants} *)

val offload_threshold : float
(** 70%: a vSwitch above this CPU or memory utilization offloads its
    heaviest vNIC (§4.2.1, Fig. 8). *)

val scale_threshold : float
(** 40%: an FE-hosting vSwitch above this CPU scales (Fig. 8). *)

val safe_level : float
(** 40%: target utilization after mitigation; fallback needs the BE
    under half of it (§4.2.2). *)

val overload_level : float
(** 95%: what counts as an overload occurrence (Fig. 13). *)

val initial_fes : int
(** 4 FEs per new offload (App. B.2). *)

val min_fes : int
(** 4: the failover floor an offload is refilled to (§4.4). *)

val fe_cpu_max : float
(** 30%: idle-candidate CPU ceiling (§4.2.1). *)

val fe_mem_max : float
(** 50%: idle-candidate memory ceiling. *)

val fallback_idle_ticks : int
(** 5: consecutive reports with every FE near-idle and the BE far below
    the safe level before an automatic fallback (§4.2.2). *)

val wants_offload : cpu:float -> mem:float -> bool
(** The offload trigger: CPU or memory above {!offload_threshold}. *)

val idle_candidate : cpu:float -> mem:float -> bool
(** The FE-eligibility ceilings: CPU at most {!fe_cpu_max} and memory at
    most {!fe_mem_max}. *)

(** {1 The view} *)

type config = {
  report_interval : float;
  auto_offload : bool;
  auto_scale : bool;
  auto_fallback : bool;
  placement : Placement.policy;
}

type key = int * int
(** (original BE server, vNIC id). *)

(** One active offload's intent.  ['a] is the effect layer's node
    handle, carried opaquely. *)
type 'a offload = private {
  id : int;  (** creation sequence number *)
  key : key;
  addr : Vnic.Addr.t;
  be_server : int;
  fes : int list;  (** intended FE set, in join order *)
  completed_at : float option;  (** when the activation finished *)
  falling_back : bool;
  repairing : bool;  (** divergence seen, repair in progress (§13) *)
  idle_ticks : int;
  last_scaled : float option;  (** last remote-pressure scale-out *)
  node : 'a;
}

type 'a view

val create : config -> 'a view

val offloads : 'a view -> 'a offload list
(** Active offloads in creation order. *)

val find : 'a view -> int -> 'a offload option
val find_key : 'a view -> key -> 'a offload option

val next_id : 'a view -> int
(** The id the next {!Offload} input assigns. *)

val report : 'a view -> int -> (float * float) option
(** A server's last reported (CPU, memory) utilization. *)

val overloads : 'a view -> int -> int
(** Reports with utilization above {!overload_level}. *)

val total_overloads : 'a view -> int

val fe_pool : 'a view -> int list
(** Distinct FE servers across active offloads, ascending. *)

(** {1 Node facts} *)

(** What the effect layer read of one server for a candidate decision. *)
type candidate = {
  server : int;
  rack : int;
  vswitch : bool;
  crashed : bool;  (** a crashed SmartNIC reports zero utilization *)
  version : int;  (** vSwitch software version *)
  peek : float * float;  (** current (CPU, memory), for a server never reported *)
  fe_served : int option;  (** vNICs its FE service serves; None without one *)
  suspect : bool;  (** the monitor missed its last probe *)
}

type pool = {
  now : float;
  draw : Rng.t;
  be_rack : int;
  candidates : candidate array;  (** indexed by server id *)
}

val utilization : 'a view -> candidate -> float * float
(** Reported utilization, or the peeked one before the first report. *)

val load : 'a view -> candidate -> float
(** The power-of-two-choices load signal: EWMA-smoothed reported CPU
    plus a fixed pressure per vNIC the server already serves as FE. *)

type vnic_load = {
  vnic : Vnic.id;
  tables : bool;  (** the rule tables are still local *)
  slow_execs : int;  (** cumulative slow-path executions *)
  mem_bytes : int;
}

(** One server's utilization report. *)
type report = {
  server : int;
  now : float;
  cpu : float;
  mem : float;
  fe_served : int;
  first_served : Vnic.Addr.t option;  (** the first vNIC its FE serves *)
  remote_cycles : int;  (** cumulative cycles spent on remote (FE) work *)
  busy : float;  (** cumulative SmartNIC busy seconds *)
  cpu_hz : float;
  vnics : vnic_load list;
}

(** Where one intended replica stands. *)
type replica =
  | Serving
  | Lost  (** the FE service and its host are up, the replica is gone *)
  | Gone  (** no FE service, or its host is down *)

(** One offload's dataplane, as read for the anti-entropy sweep. *)
type health = {
  be_open : bool;  (** a live BE tracker exists *)
  be_host_ok : bool;  (** the BE host's vSwitch is up *)
  replicas : (int * replica) list;  (** per intended FE *)
  routed : bool;  (** the gateway has a route *)
}

val conserved : 'a view -> health:('a offload -> health) -> bool
(** The intent half of the §13 conservation invariant: every offload is
    installed (FEs intended, BE tracker live, every replica serving,
    gateway routed), repairing, falling back or still activating. *)

(** {1 Inputs and intents} *)

type 'a input =
  | Report of report  (** report tick, one server at a time in id order *)
  | Tick of { health : (int * health) list }
      (** end of a report round: anti-entropy and idle fallback; health
          by offload id *)
  | Slo of Slo.decision  (** the SLO loop's verdict this tick *)
  | Offload of {
      server : int;
      vnic : Vnic.id;
      addr : Vnic.Addr.t;
      num_fes : int;
      avoid : int list;  (** servers already committed elsewhere, never picked *)
      version_ok : int -> bool;
      pool : pool;
      node : 'a;
    }  (** operator or Fig. 8: offload a vNIC *)
  | Pushed of { id : int; fes : int list }
      (** stage-1 acks resolved: the FEs that took the tables *)
  | Activated of { id : int; at : float }  (** gateway and learning done *)
  | Scale_out of { id : int; add : int; avoid : int list; pool : pool }
  | Joined of { id : int; fes : int list }  (** scale-out push acks resolved *)
  | Scale_in_server of { server : int; served : Vnic.Addr.t list; now : float }
  | Scale_in_offload of { id : int; remove : int; pool : pool }
  | Dead of { server : int; served : Vnic.Addr.t list }  (** a {!Monitor} verdict *)
  | Crashed of int
  | Restarted of { server : int; fe_unserved : int list; be_closed : int list }
      (** reconciliation: offloads whose replica on the server is gone,
          and offloads whose BE tracker there died *)
  | Fallback of int  (** fallback started (§4.2.2) *)
  | Retired of int  (** fallback finished: the offload leaves the view *)
  | Pin of { id : int; pool : pool }
  | Migrate of { id : int; to_server : int }
  | Adopt of { key : key; addr : Vnic.Addr.t; be_server : int; fes : int list; now : float; node : 'a }
      (** standby takeover of a registry entry *)

type 'a intent =
  | Offload_vnic of { server : int; vnic : Vnic.id }
  | Push of { o : 'a offload; fes : int list }  (** stage 1: tables to these FEs *)
  | Grow of { o : 'a offload; add : int; avoid : int list; or_fallback : bool }
      (** scale out; fall back if nothing could be added and [or_fallback] *)
  | Serve_replica of { o : 'a offload; server : int }
  | Evict_server of int  (** scale in every FE on a server *)
  | Shrink of { o : 'a offload; remove : int }
  | Route of 'a offload  (** gateway, BE and learners to [o.fes] *)
  | Readvertise of 'a offload  (** registry re-advertisement *)
  | Restore_route of 'a offload  (** the gateway lost the route *)
  | Restore_fe of { o : 'a offload; server : int; rpc : bool }
  | Reinstall_be of 'a offload
  | Unserve of { server : int; addr : Vnic.Addr.t }
  | Retire_replica_later of { server : int; addr : Vnic.Addr.t }
  | Unwatch of int
  | Fall_back of 'a offload
  | Pin_flow of { o : 'a offload; server : int }

val step : 'a view -> 'a input -> 'a view * 'a intent list
(** Intents come in the order the effect layer must apply them. *)

val select :
  'a view ->
  pool ->
  be_server:int ->
  exclude:int list ->
  count:int ->
  ?version_ok:(int -> bool) ->
  unit ->
  int list
(** FE candidates (§4.2.1, App. B.1): idle, healthy, not held off,
    same ToR as the BE first. *)
