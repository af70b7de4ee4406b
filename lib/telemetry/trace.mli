(** Span-based distributed tracing over the simulation clock.

    A {e trace} follows one packet's journey through the split datapath:
    an id is allocated at the vNIC (where the VM handed the packet to the
    vSwitch), carried in {!Nezha_net.Packet.t}'s [trace_id] field across
    every hop — including the BE↔FE NSH hop — and closed when the packet
    reaches a VM's application handler.  Components along the way emit
    {e spans}: half-open time intervals on the virtual clock, tagged with
    the emitting component and a kind.

    The recorder is a bounded ring buffer (a flight recorder): old spans
    are overwritten, never allocated beyond [capacity].  Sampling is
    1-in-[sample_every]; a disabled recorder allocates no ids at all, so
    every instrumentation site reduces to one [match] on the packet's
    zero trace id.

    {b Conservation invariant.}  Component handoffs in the simulator are
    instantaneous: time only advances inside SmartNIC work queues, VM
    kernels and wire transits — exactly the intervals covered by [Stage]
    and [Wire] spans.  For a completed trace those spans therefore tile
    the end-to-end interval: their durations sum to [t_end - t_begin]
    within floating-point resolution.  {!conservation_error} measures
    the residual; {!attribute} splits the tiled time into local work and
    remote-hop (FE processing + NSH-hop wire) components. *)

(** How a span participates in accounting.  [Stage] and [Wire] spans are
    the tiling set of the conservation invariant; [Detail] spans annotate
    sub-work already covered by an enclosing stage (e.g. classification
    inside the slow path) and are excluded from the sum. *)
type kind = Stage | Wire | Detail | Mark

(** Critical-path classification: [Remote] marks time that exists only
    because of load sharing — FE processing and wire hops carrying NSH
    metadata (the BE↔FE legs).  Everything else is [Local]. *)
type site = Local | Remote

type span = {
  trace : int;
  name : string;
  component : string;  (** e.g. ["vswitch/vs-0"], ["be/vs-0/1"], ["fabric"] *)
  kind : kind;
  site : site;
  t0 : float;  (** virtual-clock start *)
  dur : float;  (** 0 for [Mark] *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** A disabled recorder that samples every packet once enabled; capacity
    defaults to 65536 spans.
    @raise Invalid_argument on a non-positive capacity. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_sample_every : t -> int -> unit
(** Deterministic 1-in-[n] head sampling, decided at id allocation. *)

val capacity : t -> int

(** {1 Recording} *)

val next_id : t -> int
(** Allocate a trace id for a packet entering at the vNIC.  Returns [0]
    (untraced) when disabled or when head sampling skips this packet. *)

val begin_trace : t -> id:int -> now:float -> unit
val end_trace : t -> id:int -> now:float -> unit
(** First [end_trace] wins; later calls (a duplicate delivery racing a
    retransmission) are ignored so [t_end] stays the measured latency. *)

val add_span :
  t ->
  id:int ->
  name:string ->
  component:string ->
  ?kind:kind ->
  ?site:site ->
  ?args:(string * string) list ->
  t0:float ->
  t1:float ->
  unit ->
  unit
(** Record [\[t0, t1)] against trace [id].  No-op when [id = 0] or the
    recorder is disabled.  Defaults: [Stage], [Local], no args. *)

val mark :
  t ->
  id:int ->
  name:string ->
  component:string ->
  ?args:(string * string) list ->
  now:float ->
  unit ->
  unit
(** An instantaneous annotation (kind [Mark]) — e.g. a fault-injected
    drop on a wire hop. *)

(** {1 Inspection} *)

val span_count : t -> int
(** Spans currently held in the ring. *)

val dropped_spans : t -> int
(** Spans overwritten because the ring wrapped. *)

val trace_ids : t -> int list
(** Ids with a recorded begin, oldest first. *)

val completed_ids : t -> int list
(** Ids with both begin and end, oldest first. *)

val interval : t -> id:int -> (float * float option) option
(** [(t_begin, t_end)] for a known trace. *)

val spans_of : t -> id:int -> span list
(** Spans still in the ring for this trace, in [t0] order. *)

val clear : t -> unit
(** Drop all spans and trace records (capacity and settings kept). *)

(** {1 Analysis} *)

type attribution = {
  t_begin : float;
  t_end : float;
  e2e : float;  (** [t_end - t_begin] *)
  local_s : float;  (** tiling spans classified [Local] *)
  remote_s : float;  (** tiling spans classified [Remote] *)
  residual : float;  (** [e2e - local_s - remote_s]; ~0 when conserved *)
}

val attribute : t -> id:int -> attribution option
(** [None] for unknown or incomplete traces. *)

val conservation_error : t -> id:int -> float option
(** [abs residual] — the conservation invariant holds when this is within
    clock resolution (a few ulps of the timestamps involved). *)

(** {1 Export} *)

val to_chrome_json : t -> Json.t
(** The Chrome trace-event format ([chrome://tracing] / Perfetto):
    an object with a [traceEvents] array of complete ([ph:"X"]) events
    for spans, instant ([ph:"i"]) events for marks, and one synthetic
    [e2e] event per completed trace.  Timestamps are microseconds of
    virtual time; [tid] is the trace id, the category encodes kind and
    site, and each event carries its component in [args]. *)
