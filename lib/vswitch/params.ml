type t = {
  cpu_hz : float;
  queue_capacity : int;
  mem_bytes : int;
  state_slot_bytes : int;
  flow_aging : float;
}

(* Fit against Table A1 (see the interface): with 5 tables at 550 cycles
   base each (2750), LPM ~8 levels x 12, ~0.7 cycles/byte and the
   remainder in per-packet dispatch, a 64 B / 0-rule lookup costs ~2900
   cycles; at 20 Gcycles/s that is within 5% of the paper's 6.6 Mpps. *)
let table_base_cycles = 550
let acl_log_cycles = 66
let lpm_depth_cycles = 12
let byte_move_cycles = 0.7
let fast_path_cycles = 600
let split_fast_path_cycles = 320
let encap_cycles = 150
let session_setup_cycles = 48_000
let flow_cache_cycles = 46_000
let megaflow_hit_cycles = 120
let state_init_cycles = 2_000
let state_update_cycles = 400
let session_entry_overhead = 100
let be_residual_bytes_per_vnic = 2048
let syn_aging = 2.0
let offload_retx_timeout = 0.02
let offload_retx_max = 3
let offload_track_capacity = 4096
let offload_suspect_after = 2

let default =
  {
    cpu_hz = 20e9 (* 8 cores ≈ 2.5 GHz effective *);
    queue_capacity = 4096;
    mem_bytes = 10 * 1024 * 1024 * 1024 (* 10 GB, §6.1 *);
    state_slot_bytes = 64;
    flow_aging = 8.0;
  }

let with_cpu_scale s t = { t with cpu_hz = t.cpu_hz /. s }

let scaled =
  let t = with_cpu_scale 100.0 default in
  { t with mem_bytes = int_of_float (float_of_int t.mem_bytes /. 1000.0) }

let log2 x = log x /. log 2.0

let rule_lookup_cycles ~acl_rules_scanned ~lpm_depth ~tables =
  let acl = float_of_int acl_log_cycles *. log2 (1.0 +. float_of_int acl_rules_scanned) in
  (tables * table_base_cycles) + int_of_float acl + (lpm_depth * lpm_depth_cycles)

let packet_cycles ~wire_bytes = int_of_float (byte_move_cycles *. float_of_int wire_bytes)
