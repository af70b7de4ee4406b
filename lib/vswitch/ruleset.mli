(** Per-vNIC rule tables and the slow-path lookup over them.

    Establishing a connection queries at least five tables — ACL, QoS,
    policy, VXLAN routing and vNIC-server mapping — and up to 12 with
    advanced features enabled (§2.2.2).  [lookup] runs the pipeline,
    returns the bidirectional {!Pre_action.t} and charges cycles per the
    cost model.  Rule tables are stateless: this whole structure is what
    Nezha replicates onto FEs.

    Two accelerations sit in front of the pipeline walk:

    - the ACL is served by a {!Classifier} whose backend is picked by a
      selection policy ([Auto] by default: tuple-space search for small
      or mask-diverse tables, the learned range index once the table is
      large and mostly indexable; the linear scan stays available as the
      reference backend);
    - results are memoized in an OVS-style megaflow cache under a
      conservatively-masked key, invalidated wholesale whenever
      {!generation} or the classifier revision moves. *)

open Nezha_net
open Nezha_tables

type t

val create :
  vni:int ->
  ?acl:Acl.t ->
  ?policy:Classifier.policy ->
  ?rate_limit_bps:int ->
  ?stats_rules:(Ipv4.Prefix.t * Pre_action.stats_spec) list ->
  ?stateful_decap:bool ->
  ?mirror:bool ->
  ?extra_tables:int ->
  ?fixed_overhead_bytes:int ->
  ?lookup_extra_cycles:int ->
  unit ->
  t
(** [policy] (default [Auto]) selects the classifier backend from the
    ruleset's shape at every resync.  [extra_tables] models advanced
    features (policy routing, mirroring,
    flow logging) that add lookup stages.  [fixed_overhead_bytes]
    (default 2 MB, the production minimum of §6.2.1) is the footprint of
    the table scaffolding itself.  [lookup_extra_cycles] (default 0) is a
    per-execution surcharge for O(100 MB) production tables whose lookups
    miss every cache — what differentiates the middlebox CPS gains of
    Table 3. *)

val vni : t -> int

val acl : t -> Acl.t
(** The underlying ACL handle.  Mutating it directly is allowed; the
    classifier index resyncs itself, but cached flows built from the old
    rules need {!bump_generation} to be invalidated. *)

val classifier : t -> Classifier.t
val stateful_decap : t -> bool

val add_route : t -> Ipv4.Prefix.t -> unit
(** Declare an overlay prefix reachable (VXLAN routing table). *)

val remove_route : t -> Ipv4.Prefix.t -> bool

val add_mapping : t -> Vnic.Addr.t -> Ipv4.t -> unit
(** Bind a peer overlay address to the underlay server hosting it
    (vNIC-server mapping entry). *)

val set_mapping_multi : t -> Vnic.Addr.t -> Ipv4.t array -> unit
(** ECMP-style entry: an offloaded vNIC is reachable at any of its FEs;
    the sender picks one by 5-tuple hash (§4.2.1, §3.2.3).
    @raise Invalid_argument on an empty array. *)

val find_mapping : t -> Vnic.Addr.t -> Ipv4.t array option

val remove_mapping : t -> Vnic.Addr.t -> bool
val mapping_count : t -> int

val table_count : t -> int
(** Tables queried per slow-path execution (5 + extras). *)

type lookup_result = {
  pre : Pre_action.t;
  cycles : int;  (** CPU cost of this pipeline execution *)
}

val lookup :
  t -> params:Params.t -> vpc:Vpc.t -> flow_tx:Five_tuple.t -> lookup_result option
(** Run the slow path for a session given its TX-orientation tuple (source
    is the vNIC's overlay address).  [None] when no VXLAN route covers the
    peer: the packet is unroutable and dropped.  Note an ACL [Deny] still
    returns a result — deny is a pre-action, not a drop, because state may
    overrule it (§3.1).

    A megaflow-cache hit short-circuits the walk and costs only
    [params.megaflow_hit_cycles].  Sessions whose peer maps to several
    FEs are never cached: their FE choice hashes the full tuple. *)

val note_megaflow_hit : t -> unit
(** Record a megaflow hit that happened outside {!lookup}: the batched
    datapath resolves one lookup per flow-key group and each additional
    group member is accounted as the cache hit it would have been in a
    batch of its own. *)

val megaflow_hits : t -> int
val megaflow_misses : t -> int
val megaflow_entries : t -> int

val classifier_tuples : t -> int
(** Mask shapes the classifier still searches hash-style (0 under the
    linear backend; the remainder set under the learned backend). *)

val classifier_backend : t -> Classifier.backend
(** The backend currently serving ACL lookups — under the [Auto] policy
    this is a decision, not a configuration, so telemetry surfaces it
    per vNIC. *)

val classifier_memory_bytes : t -> int
(** Memory charged to the classifier index alone (also included in
    {!memory_bytes}). *)

val memory_bytes : t -> int

val generation : t -> int
(** Bumped on every table mutation; cached flows created under an older
    generation are stale and must be invalidated (§3.2.2). *)

val bump_generation : t -> unit
(** Mark the tables changed.  Route/mapping mutations bump automatically;
    callers that mutate the ACL (or other tables) through their own
    handles must bump explicitly, or stale cached flows would keep
    serving the old verdicts. *)

val clone : t -> t
(** Deep copy — how the controller configures an FE with a vNIC's rule
    tables. *)
