(** Backend-parameterized packet classifier.

    One [verdict] API over interchangeable engines behind the {!BACKEND}
    module interface: the {!Acl} linear scan (the reference oracle —
    simple, obviously correct), {!Tss} tuple-space search (cost grows
    with the number of distinct mask shapes, not rules) and the
    {!Learned} range index (NuevoMatch-style computational cache — cost
    grows with neither, the regime that matters at 10k–100k rules).
    The property tests require all backends to return identical
    verdicts, matched rule included.

    The underlying {!Acl.t} stays the source of truth: callers that hold
    the ACL handle (tenant rule updates go through [Ruleset.acl]) may
    mutate it directly, and the derived index resyncs lazily via
    {!Acl.revision} before the next lookup.  Resync is also where the
    [Auto] {!policy} re-decides which backend fits the ruleset's shape —
    a classifier can start out tuple-space and flip to the learned index
    as the tenant's table grows. *)

open Nezha_net

type verdict = { action : Acl.action; rules_scanned : int; matched : Acl.rule option }
(** [rules_scanned] is the work measure fed to the CPU cost model —
    each backend charges what its algorithm actually does: rules
    examined for the linear scan; hash probes + bucket entries for
    tuple space; model evaluations + window-search steps + remainder
    probes for the learned index. *)

(** {1 The backend interface}

    A backend is a derived index over the ACL.  [build] reconstructs it
    from scratch in match order; [insert]/[remove] return [true] when
    the mutation was absorbed incrementally and [false] when the caller
    must schedule a rebuild (the facade leaves the index stale and
    rebuilds on the next lookup).  Implementations live in their own
    modules ({!Acl}, {!Tss}, {!Learned}); the structs here only adapt
    them to the common signature. *)
module type BACKEND = sig
  type t

  val name : string
  val create : default:Acl.action -> unit -> t

  val build : t -> Acl.t -> unit
  (** Full rebuild from the ACL in match order (priority ascending,
      insertion-stable), so every backend breaks priority ties
      identically. *)

  val insert : t -> Acl.rule -> bool
  val remove : t -> priority:int -> bool
  val clear : t -> unit
  val lookup : t -> Five_tuple.t -> verdict
  val lookup_reverse : t -> Five_tuple.t -> verdict

  val tuple_count : t -> int
  (** Distinct mask shapes the backend still searches hash-style (0 for
      the linear scan; the remainder set for the learned index). *)

  val memory_bytes : t -> int
end

module Linear_backend : BACKEND
module Tss_backend : BACKEND
module Learned_backend : BACKEND

type backend = Linear | Tuple_space | Learned
(** Thin constructor enum over the {!BACKEND} modules — the closed
    dispatch type is gone from the lookup path; this survives only as a
    name for configuration, policy pins and telemetry. *)

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

val backend_code : backend -> int
(** Stable numeric id for telemetry gauges: linear = 0, tss = 1,
    learned = 2. *)

val backend_module : backend -> (module BACKEND)

(** {1 Selection policy} *)

type policy =
  | Auto
      (** Re-decided at every resync from the ruleset's shape: small
          tables and mask-diverse/wildcard-heavy tables stay on tuple
          space; large tables whose rules mostly constrain one address
          field move to the learned index. *)
  | Fixed of backend

val policy_to_string : policy -> string

val auto_rule_threshold : int
(** [Auto] considers the learned backend only at or above this many
    rules. *)

val auto_min_indexable : float
(** ... and only when {!Learned.indexable_fraction} reaches this bound
    (otherwise the remainder TSS would dominate and the model is pure
    overhead). *)

val select : Acl.t -> backend
(** The [Auto] decision function, exposed for tests and telemetry. *)

type t

val create : ?policy:policy -> ?default:Acl.action -> unit -> t
(** [policy] defaults to [Auto]; [default] to [Permit]. *)

val of_acl : ?policy:policy -> Acl.t -> t
(** Wrap an existing ACL; the index is built (and under [Auto] the
    backend chosen) on first lookup. *)

val acl : t -> Acl.t
val policy : t -> policy

val backend : t -> backend
(** The backend currently serving lookups (syncs first, so a pending
    [Auto] re-selection is reflected). *)

val add : t -> Acl.rule -> unit
val remove : t -> priority:int -> bool
val clear : t -> unit

val lookup : t -> Five_tuple.t -> verdict
val lookup_reverse : t -> Five_tuple.t -> verdict
(** Verdict for the reversed tuple orientation, allocation-free. *)

val rule_count : t -> int

val tuple_count : t -> int
(** Mask shapes searched hash-style by the active backend. *)

val memory_bytes : t -> int
(** Memory charged to the active backend's index (the ACL itself for
    the linear scan). *)

val revision : t -> int
val default_action : t -> Acl.action

val copy : t -> t
(** Independent duplicate; the copy rebuilds its own index lazily. *)
