(* region_day: [Region_sim.run] on the default region (2,000 real
   vSwitches, 8 shards, wheel engine, controller on).  The run is opaque
   to the benchmark, so set-up is timed as a zero-length run of the same
   config and the measured window is whole runs, repeated until the
   requested host time is spent (at least three); every repetition must
   reproduce the same digest. *)

open Nezha_workloads

type outcome = {
  setup_times : Host.sample list;
  run_times : Host.sample list;
  result : Region_sim.result;
  config : Region_sim.config;
  violations : string list;
}

let run ~config ~seconds ~setup_budget =
  let setup_times, _ =
    Host.repeat ~min_reps:(if setup_budget > 0.0 then 10 else 1) ~budget:setup_budget (fun _ ->
        Region_sim.run { config with Region_sim.duration = 0.0 })
  in
  let digests = ref [] in
  let run_times, result =
    Host.repeat ~min_reps:3 ~max_reps:1000 ~budget:seconds (fun _ ->
        let r = Region_sim.run config in
        digests := r.Region_sim.digest :: !digests;
        r)
  in
  let violations =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (result.Region_sim.late_blackholed = 0, "late blackholed ticks");
        (result.Region_sim.activations > 0, "no offload activation");
        ( List.for_all (( = ) result.Region_sim.digest) !digests,
          "repeated runs disagree" );
      ]
  in
  { setup_times; run_times; result; config; violations }
