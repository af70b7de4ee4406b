(* Shared by the region differentials in test_sharded and test_recovery:
   the controller's decisions and their outcome must not depend on the
   shard count, so a run at 1 shard is compared with runs at 2 and 4. *)

open Nezha_workloads

let equivalent (r1 : Region_sim.result) shards (r : Region_sim.result) =
  let what s = Printf.sprintf "%s, 1 vs %d shards" s shards in
  let check_int = Alcotest.(check int) and check_bool = Alcotest.(check bool) in
  check_int (what "digest") r1.digest r.digest;
  check_int (what "overloads") r1.overloads r.overloads;
  check_int (what "crashes") r1.crashes r.crashes;
  check_int (what "flow expiries") r1.flow_expiries r.flow_expiries;
  check_int (what "detections") r1.detections r.detections;
  check_int (what "activations") r1.activations r.activations;
  check_bool (what "packets modeled") true (r1.packets_modeled = r.packets_modeled);
  check_bool (what "MTTR P50 and P99") true (r1.mttr_p50 = r.mttr_p50 && r1.mttr_p99 = r.mttr_p99)
