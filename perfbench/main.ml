(* Benchmark entry point.

     main.exe --workload crr_local|offload_mix|region_day --seed N
              --seconds S --trace 0|1
     main.exe --selftest

   With [--trace 0] one untraced run reports the end-to-end metrics;
   with [--trace 1] an untraced and a traced run of the same seed report
   the per-layer ledger, after checking that both reached the same
   simulated outcome.  Human-readable lines come first; the last line of
   standard output is one JSON object whose metrics map names to values.
   Units, and the full list of names, live only in BENCHMARK.json:
   run.py completes the result from there. *)

open Nezha_workloads

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fdiv a b = if b = 0.0 then 0.0 else a /. b

(* Raw CPU seconds spent on repeated set-ups per run; [setup_s] is their
   calibrated median. *)
let setup_budget = 1.0

type report = {
  attempted : int;
  failed : int;
  violations : string list;
  metrics : (string * float) list;
      (** what the workload measures; a per-layer metric left out reads 0 *)
  extra : (string * float * string) list;  (** printed only, not in the JSON *)
}

(* ---- testbed workloads ------------------------------------------------ *)

let raw (x : Host.sample) = x.Host.cpu_s

let bed_e2e setups (o : Bed.outcome) =
  let success = 1.0 -. ratio o.failed o.attempted in
  let cal = Host.total Host.calibrated o.slices and cpu = Host.total raw o.slices in
  let pkts = float_of_int o.sent in
  {
    attempted = o.attempted;
    failed = o.failed;
    violations = o.violations;
    metrics =
      [
        ("ops_per_host_s", fdiv pkts cal);
        ("sim_speed", fdiv o.win_sim cal);
        ("setup_s", Host.median_calibrated setups);
        ("peak_heap_mb", o.peak_heap_mb);
        ("success_ratio", success);
      ];
    extra =
      [
        ("conn_p50_sim_us", o.p50_us, "us");
        ("conn_p99_sim_us", o.p99_us, "us");
        ("window_sim_s", o.win_sim, "s");
        ("window_slices", float_of_int (List.length o.slices), "count");
        ("window_pkts", pkts, "count");
        ("window_bulk_share", ratio (o.after.bulk_sent - o.before.bulk_sent) o.sent, "ratio");
        ("window_conns", float_of_int o.win_completed, "count");
        ("window_cpu_s_raw", cpu, "s");
        ("pkts_per_host_s_raw", fdiv pkts cpu, "1/s");
        ("host_slowdown", fdiv cpu cal, "ratio");
      ];
  }

(* The simulated outcome both runs must agree on exactly. *)
let fingerprint (o : Bed.outcome) =
  ( o.win_completed,
    o.p50_us,
    o.p99_us,
    o.drops,
    o.lost,
    o.vm_drops,
    o.delivered_to_vms,
    o.attempted,
    o.failed )

(* Attribution conservation: self times never exceed the traced window
   and leave only a small remainder unattributed. *)
let max_unattributed = 0.08

let bed_layers (u : Bed.outcome) (t : Bed.outcome) =
  let l, window_ns =
    match t.ledger with Some x -> x | None -> invalid_arg "bed_layers: untraced outcome"
  in
  let layers = Bed.all_layers l in
  let self_total = List.fold_left (fun acc (x : Ledger.layer) -> acc + x.self_ns) 0 layers in
  let unattributed = 1.0 -. ratio self_total window_ns in
  let b = u.before and a = u.after in
  let pkts = u.sent and tpkts = t.sent in
  (* Ledger nanoseconds are calibrated like host time, by the traced
     run's own probes. *)
  let cal = fdiv (Host.total Host.calibrated t.slices) (Host.total raw t.slices) in
  let ns_per self_ns n = cal *. ratio self_ns n in
  let per_tpkt (x : Ledger.layer) = ns_per x.self_ns tpkts in
  let per_pkt (x : Ledger.layer) = ns_per x.self_ns x.pkts in
  let fabric_ns = l.fabric.self_ns + l.fabric_batch.self_ns
  and fabric_pkts = l.fabric.pkts + l.fabric_batch.pkts in
  let reused = fst a.pool - fst b.pool and fresh = snd a.pool - snd b.pool in
  let pb_allocs, pb_reuses =
    let f0, r0, _ = b.pbatch and f1, r1, _ = a.pbatch in
    (f1 - f0, r1 - r0)
  in
  let counts =
    [
      ("engine.step_self_ns", per_tpkt l.step);
      ("engine.events_per_pkt", ratio (a.events - b.events) pkts);
      ("engine.pool_reuse_ratio", ratio reused (reused + fresh));
      ("gen.app_self_ns", per_tpkt l.app);
      ("vswitch.tx_self_ns", per_pkt l.tx);
      ("vswitch.tx_batch_self_ns_per_pkt", per_pkt l.tx_batch);
      ("vswitch.slow_path_share", ratio (a.slow - b.slow) (a.slow - b.slow + a.fast - b.fast));
      ( "vswitch.megaflow_hit_ratio",
        let hits = a.mega_hits - b.mega_hits in
        ratio hits (hits + a.mega_misses - b.mega_misses) );
      ("vswitch.sessions_peak", float_of_int u.sessions_peak);
      ("vswitch.host_bytes_per_session", t.host_bytes_per_session);
      ("be.self_ns_per_pkt", per_pkt l.be);
      ("be.ack_ratio", ratio (a.be_acked - b.be_acked) (a.be_tracked - b.be_tracked));
      ("be.retx", float_of_int (a.be_retx - b.be_retx));
      ("be.outstanding_end", float_of_int u.be_outstanding_end);
      ("fe.self_ns_per_pkt", per_pkt l.fe);
      ("fe.batch_self_ns_per_pkt", per_pkt l.fe_batch);
      ( "fe.fast_hit_ratio",
        ratio (a.fe_fast - b.fe_fast) (a.fe_fast - b.fe_fast + a.fe_lookups - b.fe_lookups) );
      ("fabric.self_ns_per_pkt", ns_per fabric_ns fabric_pkts);
      ("fabric.pkts_per_batch_call", ratio l.fabric_batch.pkts l.fabric_batch.calls);
      ("vm.deliver_self_ns", per_pkt l.vm);
      ("vm.drops", float_of_int u.vm_drops);
      ("pbatch.reuse_ratio", ratio pb_reuses (pb_allocs + pb_reuses));
      ("pbatch.leaked", float_of_int u.pbatch_leaked);
      ("gc.minor_words_per_pkt", fdiv (a.minor -. b.minor) (float_of_int pkts));
      ("gc.promoted_words_per_pkt", fdiv (a.promoted -. b.promoted) (float_of_int pkts));
      ("gc.major_collections", float_of_int (a.majors - b.majors));
      ("sim.conn_p50_us", u.p50_us);
      ("sim.conn_p99_us", u.p99_us);
      ("trace.total_ns_per_pkt", ns_per window_ns tpkts);
      ( "trace.overhead",
        fdiv (Host.total Host.calibrated t.slices) (Host.total Host.calibrated u.slices) );
      ("trace.unattributed_share", unattributed);
    ]
    @ List.map (fun (n, v) -> ("vswitch.drops." ^ n, float_of_int v)) u.drops
    @ List.map (fun (n, v) -> ("fabric.lost." ^ n, float_of_int v)) u.lost
  in
  let violations =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (fingerprint u = fingerprint t, "traced run's simulated outcome differs from untraced");
        (self_total <= window_ns, "layer self times exceed the traced window");
        (unattributed <= max_unattributed, "unattributed share above 8%");
      ]
    @ u.violations @ t.violations
  in
  let attempted = u.attempted in
  {
    attempted;
    failed = (if violations = [] then u.failed else attempted);
    violations;
    metrics = counts;
    extra =
      List.map
        (fun (x : Ledger.layer) -> (x.name ^ ".self_share", ratio x.self_ns window_ns, "ratio"))
        layers;
  }

(* An untraced run for the counts, then a traced run of the same window. *)
let traced_pair ~seed ~slices kind =
  let _, u = Bed.run ~seed ~slices ~setup_budget:0.0 ~traced:false kind in
  let _, t = Bed.run ~seed ~slices ~setup_budget:0.0 ~traced:true kind in
  bed_layers u t

(* [--trace 1] splits the host-time budget between its two runs. *)
let bed ~seed ~seconds ~trace kind =
  let slices share =
    max 1 (int_of_float (Float.round (seconds *. share *. Bed.slices_per_host_s)))
  in
  if trace then traced_pair ~seed ~slices:(slices 0.5) kind
  else
    let setups, o = Bed.run ~seed ~slices:(slices 1.0) ~setup_budget ~traced:false kind in
    bed_e2e setups o

(* ---- region_day --------------------------------------------------------- *)

let region ~config ~seconds ~trace =
  let o = Region_day.run ~config ~seconds ~setup_budget:(if trace then 0.0 else setup_budget) in
  let r = o.Region_day.result in
  let runs = o.Region_day.run_times in
  let per_run_s x = fdiv (x *. float_of_int (List.length runs)) (Host.total Host.calibrated runs) in
  let ticks = r.Region_sim.ticks in
  let failed = if o.Region_day.violations = [] then 0 else ticks in
  let events_per_host_s = per_run_s (float_of_int r.Region_sim.events) in
  let metrics =
    if not trace then
      [
        (* Demand ticks (server x tick evaluations) are fixed by the
           config, so fewer engine events for the same day read faster. *)
        ("ops_per_host_s", per_run_s (float_of_int ticks));
        ("sim_speed", per_run_s o.Region_day.config.Region_sim.duration);
        ("setup_s", Host.median_calibrated o.Region_day.setup_times);
        ( "peak_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
        ("success_ratio", 1.0 -. ratio r.Region_sim.overload_ticks ticks);
      ]
    else
      [
        ("region.events_per_host_s", events_per_host_s);
        ("region.messages", float_of_int r.Region_sim.messages);
        ("region.ticks", float_of_int ticks);
        ("region.flow_expiries", float_of_int r.Region_sim.flow_expiries);
        ( "region.pool_reuse_ratio",
          ratio r.Region_sim.pool_reused (r.Region_sim.pool_reused + r.Region_sim.pool_fresh) );
        (* No spans on this workload: nothing is attributed. *)
        ("trace.overhead", 1.0);
        ("trace.unattributed_share", 1.0);
      ]
  in
  {
    attempted = ticks;
    failed;
    violations = o.Region_day.violations;
    metrics;
    extra =
      [
        ("events", float_of_int r.Region_sim.events, "count");
        ("overloads", float_of_int r.Region_sim.overloads, "count");
        ("activations", float_of_int r.Region_sim.activations, "count");
        ("repetitions", float_of_int (List.length runs), "count");
        ("host_slowdown", fdiv (Host.total raw runs) (Host.total Host.calibrated runs), "ratio");
      ];
  }

(* ---- output ------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_report ~label r =
  List.iter (fun w -> Printf.printf "%s: VIOLATION %s\n" label w) r.violations;
  List.iter (fun (n, v) -> Printf.printf "%s: %-36s %16.6g\n" label n v) r.metrics;
  List.iter (fun (n, v, u) -> Printf.printf "%s: %-36s %16.6g %s\n" label n v u) r.extra;
  let metrics =
    String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %s" n (json_number v)) r.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.violations = []) r.attempted r.failed metrics

(* ---- self-test ---------------------------------------------------------- *)

(* The generator against [Testbed.run_crr]: one client, the same rate
   and the same arrival stream (the first split of the testbed's rng)
   must complete the same connections with the same median latency. *)
let crosscheck () =
  let open Nezha_harness in
  let duration = 2.0 and seed = 7 in
  let reference = Testbed.create ~seed ~clients:5 () in
  let rate = 0.7 *. Testbed.local_cps_capacity_estimate reference in
  let crr = Testbed.run_crr reference ~rate ~duration () in
  let tb = Testbed.create ~seed ~clients:5 () in
  let g =
    Gen.start ~sim:tb.Testbed.sim ~rng:tb.Testbed.rng ~vpc:tb.Testbed.vpc
      ~server:tb.Testbed.server ~clients:[| tb.Testbed.clients.(0) |] ~rate ()
  in
  g.Gen.win_start <- 0.0;
  g.Gen.win_end <- duration;
  g.Gen.stop_at <- duration;
  Nezha_engine.Sim.run tb.Testbed.sim ~until:(duration +. 2.0);
  let ref_p50 = Nezha_engine.Stats.Histogram.percentile (Tcp_crr.latencies crr) 50.0 *. 1e6 in
  let p50, _ = Gen.latency_us g in
  Printf.printf "crosscheck Tcp_crr completed=%d p50=%.1fus  generator completed=%d p50=%.1fus\n%!"
    (Tcp_crr.completed crr) ref_p50 g.Gen.completed p50;
  List.filter_map
    (fun (ok, what) -> if ok then None else Some ("crosscheck: " ^ what))
    [
      (Tcp_crr.completed crr = g.Gen.completed, "completed connections differ from Tcp_crr");
      (Tcp_crr.completed crr > 0, "no connection completed");
      (Float.abs (p50 -. ref_p50) <= 0.03 *. ref_p50, "p50 latency differs from Tcp_crr by > 3%");
    ]

(* The generator cross-check, then a smoke-size traced-mode run of all
   three workloads: each runs untraced and traced, so every invariant,
   traced = untraced and attribution conservation are checked. *)
let selftest () =
  let failures = ref (crosscheck ()) in
  let check label r =
    List.iter (fun v -> failures := (label ^ ": " ^ v) :: !failures) r.violations;
    if r.failed <> 0 then failures := (label ^ ": failed operations") :: !failures;
    Printf.printf "selftest %-14s attempted=%d failed=%d violations=%d\n%!" label r.attempted
      r.failed (List.length r.violations)
  in
  List.iter
    (fun (label, kind) -> check label (traced_pair ~seed:7 ~slices:2 kind))
    [ ("crr_local", Bed.Crr_local); ("offload_mix", Bed.Offload_mix) ];
  let config =
    { Region_sim.default_config with Region_sim.racks = 24; duration = 8.0; seed = 7 }
  in
  check "region_day" (region ~config ~seconds:0.0 ~trace:true);
  match !failures with
  | [] ->
    print_endline "selftest ok";
    0
  | fs ->
    List.iter (fun f -> Printf.printf "selftest FAIL %s\n" f) (List.rev fs);
    1

(* ---- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " crr_local | offload_mix | region_day");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " host seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer ledger");
      ("--selftest", Arg.Set self, " smoke-size run of every workload and check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then exit (selftest ());
  Printf.printf "meta: ocaml=%s nproc=%d workload=%s seed=%d seconds=%g trace=%d\n%!"
    Sys.ocaml_version (Domain.recommended_domain_count ()) !workload !seed !seconds !trace;
  let trace = !trace = 1 in
  let r =
    match !workload with
    | "crr_local" -> bed ~seed:!seed ~seconds:!seconds ~trace Bed.Crr_local
    | "offload_mix" -> bed ~seed:!seed ~seconds:!seconds ~trace Bed.Offload_mix
    | "region_day" ->
      let config = { Region_sim.default_config with Region_sim.seed = !seed } in
      region ~config ~seconds:!seconds ~trace
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  print_report ~label:!workload r
