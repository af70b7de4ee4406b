(** Calibration constants for the SmartNIC/vSwitch resource model.

    The cycle costs are fitted to the paper's own measurements:

    - Table A1: rule-table lookup throughput is 6.61 Mpps at 64 B / 0 ACL
      rules on a vSwitch with 8 cores, declining ~18% at 1000 rules
      (sub-linear in #rules: production classifiers are decision trees,
      not linear scans, so ACL cycle cost grows with [log2 (1+rules)])
      and ~10% from 64 B to 512 B packets (per-byte move cost).
    - §2.2.2: a full new-connection setup lands the vSwitch at O(100K)
      CPS, i.e. tens of kcycles per connection once session creation,
      bidirectional flow caching and state initialization are counted.
    - §6.2: the extra BE↔FE hop costs a few tens of µs; a rule-table
      lookup re-execution costs "slightly more than 10 µs".

    Experiments run with [scaled] parameters: CPU is divided by 100
    and memory by 1000 so that saturation happens at
    event rates a discrete-event simulation can sustain, while every
    ratio the paper reports (gain factors, knee positions, queueing
    behaviour) is preserved. *)

type t = {
  cpu_hz : float;  (** cycles/s available to the vSwitch dataplane *)
  queue_capacity : int;  (** CPU work queue depth (jobs) *)
  mem_bytes : int;  (** bytes available to the vSwitch *)
  state_slot_bytes : int;
      (** fixed state allocation; §7.1: 64 B even when mostly empty *)
  flow_aging : float;  (** normal session idle timeout (§2.2.2: 8 s) *)
}
(** What differs between vSwitches: the CPU and memory scale, the
    state-slot size the §7.1 ablation sweeps, and the queue depth the
    overflow tests shrink.  Everything else is one calibration shared by
    every vSwitch, below. *)

(** {1 CPU: cycles per operation (Table A1, §2.2.2, §6.2)} *)

val table_base_cycles : int
(** Per rule-table query, fixed part: 550. *)

val acl_log_cycles : int
(** × log2(1 + rules scanned): 66. *)

val lpm_depth_cycles : int
(** × trie levels visited: 12. *)

val byte_move_cycles : float
(** × packet wire bytes: 0.7. *)

val fast_path_cycles : int
(** Session-table exact match + action, the full local fast path: 600. *)

val split_fast_path_cycles : int
(** The per-side share under Nezha (320): the FE does only the
    cached-flow half, the BE only the state half — each cheaper than the
    full local fast path, which is why per-packet capacity survives the
    split (Fig. 12). *)

val encap_cycles : int
(** VXLAN/NSH encap or decap: 150. *)

val session_setup_cycles : int
(** First-packet overhead beyond lookups on the {e traditional} local
    path (48,000): allocation, bidirectional entry creation, state init,
    conntrack.  Equals [flow_cache_cycles + state_init_cycles]. *)

val flow_cache_cycles : int
(** The cached-flow creation share of session setup (46,000) — the work
    that moves to the FE under Nezha. *)

val megaflow_hit_cycles : int
(** Slow-path classification answered from the megaflow cache (120): one
    masked-key hash probe instead of the full pipeline walk. *)

val state_init_cycles : int
(** The state-initialization share of session setup (2,000) — the work
    the BE keeps. *)

val state_update_cycles : int
(** Applying a state transition: 400. *)

(** {1 Memory (§2.2.2, §6.2.1)} *)

val session_entry_overhead : int
(** Fixed bytes per cached bidirectional flow: 5-tuple ×2, VPC,
    pre-actions, timestamps (§2.2.2: O(100 B)); 100. *)

val be_residual_bytes_per_vnic : int
(** BE-side footprint of an offloaded vNIC: FE locations and essential
    metadata (§6.2.1: 2 KB). *)

(** {1 Timing and the BE's offload tracker} *)

val syn_aging : float
(** Short aging for establishing sessions (§7.3): 2 s. *)

val offload_retx_timeout : float
(** How long the BE waits for the FE's hop-level ack before retrying a
    slow-path offload: 20 ms. *)

val offload_retx_max : int
(** Retries before falling back to the local slow path: 3. *)

val offload_track_capacity : int
(** Bound on outstanding tracked offloads (4096); beyond it, sends revert
    to fire-and-forget. *)

val offload_suspect_after : int
(** Consecutive hop timeouts before an FE is steered around: 2. *)

(** {1 Per-vSwitch parameters} *)

val default : t
(** Full-scale parameters (production-like magnitudes). *)

val scaled : t
(** [default] with CPU ÷ 100 and memory ÷ 1000: testbed experiments
    saturate around a few thousand CPS and tens of thousands of flows,
    which a DES sweeps comfortably. *)

val with_cpu_scale : float -> t -> t
(** [cpu_hz] divided by the given factor. *)

val rule_lookup_cycles : acl_rules_scanned:int -> lpm_depth:int -> tables:int -> int
(** Slow-path cycles for one rule-table pipeline execution over [tables]
    tables (≥5 normally, up to 12 with advanced features, §2.2.2).
    [acl_rules_scanned] is the classifier backend's own work measure —
    rules examined (linear), hash probes + bucket entries (tuple space),
    or model evaluations + window-search steps + remainder probes
    (learned) — so the log2(1+work) charge stays meaningful whichever
    backend the selection policy picked. *)

val packet_cycles : wire_bytes:int -> int
(** Per-byte move cost for getting the packet into the vSwitch. *)
