(** Per-session state: the one thing Nezha keeps local, in one copy.

    State is initialized by the first packet of a session and updated by
    later packets (§2.1).  Its components here are the stateful NFs the
    paper discusses: the first-packet direction (stateful ACL, §5.1), a
    TCP connection-tracking phase, the recorded overlay source for
    stateful decapsulation (§5.2), and flow-level statistics whose *shape*
    comes from the rule tables (§3.2.2).

    The paper's Fig. 15 point — most states are far smaller than their
    fixed 64 B slot — is measurable here: {!val:size_bytes} gives the
    variable encoded size, while the vSwitch charges the fixed slot. *)

open Nezha_net

type tcp_phase = Establishing | Established | Closing

val pp_tcp_phase : Format.formatter -> tcp_phase -> unit

type stats_counters = { packets : int; bytes : int }

type t = {
  first_dir : Packet.direction;
  tcp : tcp_phase option;
  decap_src : Ipv4.t option;  (** LB overlay address recorded by stateful decap *)
  stats : stats_counters option;
}

val init : first_dir:Packet.direction -> ?tcp:tcp_phase -> unit -> t
(** Fresh state recording the first packet's direction. *)

val is_establishing : t -> bool
(** True when the session has not yet completed its handshake; such
    entries get the short SYN aging time (§7.3). *)

val equal : t -> t -> bool

(** Field equalities, for a caller deciding whether a step changed a
    state without building the new one. *)

val equal_tcp : tcp_phase option -> tcp_phase option -> bool
val equal_decap : Ipv4.t option -> Ipv4.t option -> bool
val equal_stats : stats_counters option -> stats_counters option -> bool
val pp : Format.formatter -> t -> unit

val size_bytes : t -> int
(** Variable-length encoded size (Fig. 15: typically 5–8 B). *)

(** {1 Wire codec}

    TX packets carry the state from BE to FE inside the NSH header. *)

val encode : t -> bytes
val decode : bytes -> (t, string) result
