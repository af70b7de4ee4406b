(* The reproduction harness: one section per table and figure of the
   paper's evaluation, each printing the paper's reported values next to
   what this implementation measures.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe fig9 table3     run selected experiments
     bench/main.exe micro           Bechamel microbenchmarks of the core
                                    data structures
     bench/main.exe macro           region-scale run: the Fig. 13
                                    before/after overloads plus a
                                    shard-count digest sweep
     bench/main.exe --list          list experiment names
     bench/main.exe --json FILE     machine-readable mode: write the
                                    JSON-capable experiments (fig9 gains
                                    plus latency summaries, table4, and
                                    the micro ns/op numbers) to FILE
                                    instead of printing tables *)

open Nezha_engine
open Nezha_workloads
open Nezha_harness
open Nezha_core
open Nezha_telemetry

let banner title = Printf.printf "\n==== %s ====\n%!" title

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Testbed experiments (§6.2) *)

let fig9 () =
  banner
    "Fig. 9 — performance gain vs #FEs (paper: CPS ~3.3x and #flows ~3.8x plateau beyond 4 FEs; #vNICs proportional to #FEs)";
  note "%4s  %10s  %12s  %12s" "#FEs" "CPS gain" "#flows gain" "#vNICs gain";
  List.iter
    (fun r ->
      note "%4d  %9.2fx  %11.2fx  %11.2fx" r.Experiments.fes r.Experiments.cps_gain
        r.Experiments.flows_gain r.Experiments.vnics_gain)
    (Experiments.fig9 ~fes_list:[ 1; 2; 3; 4; 6; 8 ] ());
  note "#vNICs on the paper's wider axis (every vNIC's tables replicate on min(4, #FEs) FEs):";
  note "  %s"
    (String.concat "  "
       (List.map
          (fun (fes, g) -> Printf.sprintf "%d FEs: %.0fx" fes g)
          (Experiments.fig9_vnics ())))

let fig10 () =
  banner
    "Fig. 10 — CPS vs #vCPUs in the VM (paper: without Nezha flat at the vSwitch cap; with Nezha grows sublinearly, ~3.25x from 8 to 64 cores)";
  note "%6s  %14s  %14s" "vCPUs" "CPS w/o Nezha" "CPS w/ Nezha";
  List.iter
    (fun r ->
      note "%6d  %14.0f  %14.0f" r.Experiments.vcpus r.Experiments.cps_without
        r.Experiments.cps_with)
    (Experiments.fig10 ())

let fig11 () =
  banner
    "Fig. 11 — CPU utilization during offloading/scaling (paper: BE climbs to 70% -> offload to 4 FEs -> BE ~10%; FE >40% -> scale-out to 8)";
  note "%6s  %8s  %7s  %7s  %5s" "t(s)" "CPS" "BE cpu" "FE cpu" "#FEs";
  List.iter
    (fun p ->
      if int_of_float (p.Experiments.t *. 2.0) mod 4 = 0 then
        note "%6.1f  %8.0f  %7.2f  %7.2f  %5d" p.Experiments.t p.Experiments.cps
          p.Experiments.be_cpu p.Experiments.fe_cpu p.Experiments.n_fes)
    (Experiments.fig11 ())

let fig12 () =
  banner
    "Fig. 12 — end-to-end latency vs load (paper: identical <70%; small extra-hop cost after offload; without Nezha explodes past capacity)";
  note "%6s  %14s  %14s  %10s  %10s" "load" "w/o Nezha (us)" "w/ Nezha (us)" "loss w/o" "loss w/";
  List.iter
    (fun r ->
      note "%6.2f  %14.1f  %14.1f  %10.3f  %10.3f" r.Experiments.load
        r.Experiments.lat_without_us r.Experiments.lat_with_us r.Experiments.lost_without
        r.Experiments.lost_with)
    (Experiments.fig12 ())

(* fig12 --attribute: the same probe, with the flight recorder on and the
   percentiles split into local vs remote-hop components (rank-based, so
   local + remote = e2e by the conservation invariant). *)
let fig12_attr () =
  banner
    "Fig. 12 --attribute — P50/P99 latency split into local vs remote-hop components (local + remote = e2e)";
  note "%6s  %-8s  %7s  %28s  %28s" "load" "variant" "traces"
    "P50 e2e = local + remote (us)" "P99 e2e = local + remote (us)";
  let line load variant (s : Experiments.latency_split) =
    note "%6.2f  %-8s  %7d  %9.1f = %7.1f + %6.1f  %9.1f = %7.1f + %6.1f" load variant
      s.Experiments.traces s.Experiments.p50_us s.Experiments.p50_local_us
      s.Experiments.p50_remote_us s.Experiments.p99_us s.Experiments.p99_local_us
      s.Experiments.p99_remote_us
  in
  List.iter
    (fun r ->
      line r.Experiments.attr_load "w/o" r.Experiments.without_nezha;
      line r.Experiments.attr_load "w/" r.Experiments.with_nezha)
    (Experiments.fig12_attribute ())

let table3 () =
  banner
    "Table 3 — middlebox gains (paper: CPS 4x/4.4x/3x; #vNICs >40x; #flows 5.04x/50.4x/15.3x)";
  note "%-16s  %9s  %12s  %12s" "middlebox" "CPS gain" "#vNICs gain" "#flows gain";
  List.iter
    (fun r ->
      note "%-16s  %8.2fx  %11.1fx  %11.2fx"
        (Middlebox.to_string r.Experiments.kind)
        r.Experiments.cps_gain r.Experiments.vnics_gain r.Experiments.flows_gain)
    (Experiments.table3 ())

let table4 () =
  banner
    "Table 4 — completion time for activating offloading (paper: avg 1077 / P90 1503 / P99 2087 / P999 2858 ms)";
  let h = Experiments.table4 ~events:250 () in
  note "measured (ms): avg %.0f / P90 %.0f / P99 %.0f / P999 %.0f over %d activations"
    (Stats.Histogram.mean h)
    (Stats.Histogram.percentile h 90.0)
    (Stats.Histogram.percentile h 99.0)
    (Stats.Histogram.percentile h 99.9)
    (Stats.Histogram.count h)

let fig14 () =
  banner
    "Fig. 14 — packet loss during FE crash (paper: a surge lasting ~2 s, bounded by the dead FE's 1/M traffic share)";
  note "%6s  %9s" "t(s)" "loss rate";
  List.iter
    (fun (t, loss) -> if t >= 3.0 && t <= 9.0 then note "%6.2f  %9.3f" t loss)
    (Experiments.fig14 ())

let tableA1 () =
  banner
    "Table A1 — rule-lookup throughput in Mpps (paper: 6.61 at 64B/0 rules, declining to 4.76 at 512B/1000 rules)";
  let rows = Experiments.tableA1 () in
  (match rows with
  | (_, cols) :: _ ->
    note "%9s %s" "pkt\\rules"
      (String.concat "" (List.map (fun (n, _) -> Printf.sprintf "%9d" n) cols))
  | [] -> ());
  List.iter
    (fun (size, cols) ->
      note "%8dB %s" size
        (String.concat "" (List.map (fun (_, mpps) -> Printf.sprintf "%8.3fM" mpps) cols)))
    rows

let appB2 () =
  banner
    "App. B.2 — 30-day scale-out accounting (paper: 2499 offloads, 10062 FEs, <=66 scale-outs = 2.6%)";
  let r = Experiments.appB2 () in
  note "measured: %d offloads, %d FEs provisioned, %d scale-outs (%.1f%%)"
    r.Experiments.offload_events r.Experiments.fes_provisioned r.Experiments.scale_out_events
    (100.0 *. r.Experiments.scale_out_ratio)

(* ------------------------------------------------------------------ *)
(* Fleet experiments (§2.2, §6.3) *)

let fig2 () =
  banner
    "Fig. 2 — CPU of high-CPS VMs vs their vSwitches (paper: vSwitch >95% everywhere; 90% of VMs <60%)";
  let rng = Rng.create 42 in
  let pts = Region.high_cps_vm_sample rng ~n:10_000 in
  let vm_cpu = Array.map fst pts and sw_cpu = Array.map snd pts in
  note "vSwitch CPU: min %.1f%%  (all >= 95%%)" (100.0 *. Array.fold_left Float.min 1.0 sw_cpu);
  let below60 = Array.fold_left (fun a v -> if v < 0.6 then a + 1 else a) 0 vm_cpu in
  note "VM CPU: P50 %.0f%%, share below 60%% = %.0f%%"
    (100.0 *. Stats.percentile vm_cpu 50.0)
    (100.0 *. float_of_int below60 /. 10_000.0)

let fig3 () =
  banner "Fig. 3 — hotspot distribution (paper: CPS ~61%, #flows ~30%, #vNICs ~9%)";
  let rng = Rng.create 42 in
  let fleet = Region.sample_fleet rng ~n:100_000 in
  let counts = Region.classify Region.default_capacities fleet in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  List.iter
    (fun (cause, n) ->
      note "%-18s %5.1f%%  (%d vSwitches)"
        (Format.asprintf "%a" Region.pp_cause cause)
        (100.0 *. float_of_int n /. float_of_int (max 1 total))
        n)
    counts

let fig4 () =
  banner
    "Fig. 4 — utilization CDF over O(10K) vSwitches (paper CPU: avg 5 / P90 15 / P99 41 / P999 68 / P9999 90%; mem: 1.5 / 15 / 34 / 93 / 96%)";
  let rng = Rng.create 42 in
  let fleet = Region.sample_fleet rng ~n:50_000 in
  let report name arr =
    note "%-6s avg %4.1f%%  P90 %4.1f%%  P99 %4.1f%%  P999 %4.1f%%  P9999 %4.1f%%" name
      (100.0 *. Stats.mean arr)
      (100.0 *. Stats.percentile arr 90.0)
      (100.0 *. Stats.percentile arr 99.0)
      (100.0 *. Stats.percentile arr 99.9)
      (100.0 *. Stats.percentile arr 99.99)
  in
  report "CPU" (Array.map (fun p -> p.Region.cpu) fleet);
  report "memory" (Array.map (fun p -> p.Region.mem) fleet)

let table1 () =
  banner "Table 1 — service usage share of the P9999 user (paper: CPS 0.53/1.41/6.41/18.38/100%)";
  note "%-8s %8s %8s %8s %8s %8s" "" "P50" "P90" "P99" "P999" "P9999";
  let row name q =
    note "%-8s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%" name (100.0 *. q 0.5) (100.0 *. q 0.9)
      (100.0 *. q 0.99) (100.0 *. q 0.999) (100.0 *. q 0.9999)
  in
  row "CPS" Region.cps_demand_quantile;
  row "#flows" Region.flows_demand_quantile;
  row "#vNICs" Region.vnics_demand_quantile

let fig13 () =
  banner
    "Fig. 13 — daily overloads before/after Nezha (paper: >99.9% resolved for CPS and #flows; 100% for #vNICs)";
  let rng = Rng.create 42 in
  List.iter
    (fun cause ->
      let days =
        Region.daily_overloads rng ~n_vswitches:20_000 ~capacities:Region.default_capacities
          ~cause ~days:30
      in
      let before = List.fold_left (fun a d -> a + d.Region.before) 0 days in
      let after = List.fold_left (fun a d -> a + d.Region.after) 0 days in
      note "%-18s before: %5d/month   after: %3d/month   resolved: %.2f%%"
        (Format.asprintf "%a" Region.pp_cause cause)
        before after
        (100.0 *. (1.0 -. (float_of_int after /. float_of_int (max 1 before)))))
    [ Region.Cps; Region.Flows; Region.Vnics ]

let fig15 () =
  banner "Fig. 15 — average state size (paper: 5-8 B vs the fixed 64 B slot)";
  let rng = Rng.create 42 in
  for region = 1 to 5 do
    let sizes = Region.state_size_samples (Rng.split rng) ~n:20_000 in
    note "region %d: avg %.1f B (max %.0f B, slot 64 B)" region (Stats.mean sizes)
      (Array.fold_left Float.max 0.0 sizes)
  done

let table5 () =
  banner
    "Table 5 — deployment costs (paper: Sailfish 100+48+20 P-M, 1-3 months to scale out; Nezha 15 P-M, 1-7 days)";
  List.iter
    (fun sol ->
      let c = Costs.cost_of sol in
      note "%-9s hw %3.0f P-M  sw %3.0f P-M  iteration %3.0f P-M  scale-out %g-%g days"
        (Format.asprintf "%a" Costs.pp_solution sol)
        c.Costs.hardware_dev_pm c.Costs.software_dev_pm c.Costs.iteration_pm
        c.Costs.scale_out_days_min c.Costs.scale_out_days_max)
    [ Costs.Sailfish; Costs.Nezha ];
  note "Nezha / Sailfish development effort: %.0f%%" (100.0 *. Costs.development_ratio ())

let figA1 () =
  banner
    "Fig. A1 — VM migration downtime vs resources (paper: grows with vCPUs and memory; vs Nezha's ~2 s offload)";
  let rng = Rng.create 42 in
  note "%6s %8s %14s %16s" "vCPUs" "mem(GB)" "downtime(s)" "completion(s)";
  List.iter
    (fun (v, m) ->
      let avg f =
        List.init 40 (fun _ -> f ()) |> List.fold_left ( +. ) 0.0 |> fun s -> s /. 40.0
      in
      note "%6d %8d %14.2f %16.1f" v m
        (avg (fun () -> Region.migration_downtime_s rng ~vcpus:v ~mem_gb:m))
        (avg (fun () -> Region.migration_completion_s rng ~vcpus:v ~mem_gb:m)))
    [ (8, 32); (16, 64); (32, 128); (64, 256); (128, 1024) ];
  note "versus remote offloading at P99 ~2 s, independent of VM size (§7.2)"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablations () =
  banner "Ablation — Nezha vs Sirius-style replication on identical hardware (4 idle SmartNICs)";
  let s = Experiments.ablation_sirius () in
  note
    "Nezha CPS %.0f vs Sirius CPS %.0f (%.2fx): in-line replication consumed the backup cards (%d ping-pongs)"
    s.Experiments.nezha_cps s.Experiments.sirius_cps
    (s.Experiments.nezha_cps /. s.Experiments.sirius_cps)
    s.Experiments.sirius_pingpongs;
  banner "Ablation — flow-level vs packet-level load balancing (§3.2.3)";
  List.iter
    (fun r ->
      note "%-13s FE rule lookups %6d  cached flows %6d  CPS %7.0f" r.Experiments.mode
        r.Experiments.fe_rule_lookups r.Experiments.fe_cached_flows r.Experiments.cps)
    (Experiments.ablation_flow_vs_packet_lb ());
  banner "Ablation — fixed 64 B vs variable 8 B state slots (§7.1)";
  List.iter
    (fun r ->
      note "slot %2d B: %d concurrent flows" r.Experiments.slot_bytes r.Experiments.flows_supported)
    (Experiments.ablation_state_size ());
  banner "Ablation — failover with TCP retransmission (§6.3.4)";
  let f = Experiments.ablation_failover_retransmit () in
  note
    "FE crash during closed-loop CRR: %d connections failed without retransmission, %d with it (%d retransmissions, %d completed) — retries outlive the ~2 s failover"
    f.Experiments.failed_without_retx f.Experiments.failed_with_retx
    f.Experiments.retransmissions f.Experiments.completed_with_retx;
  banner "Ablation — FE placement locality (App. B.1)";
  List.iter
    (fun r -> note "%-28s P50 connection latency %8.1f us" r.Experiments.placement r.Experiments.p50_latency_us)
    (Experiments.ablation_fe_locality ());
  banner "Ablation — notify packet rate (§3.2.2)";
  note "notify packets per data packet: %.4f (TX-first sessions with a statistics policy)"
    (Experiments.ablation_notify_rate ())

(* ------------------------------------------------------------------ *)
(* Region-scale macrobenchmark: the Fig. 13 region run and its
   simulated-result checks.  The region section is the measured
   before/after-Nezha overload count; the sweep reruns the "after"
   config at growing shard counts.  Every sweep entry must carry the
   same digest (shard-count invariance), and the entry at the default
   shard count must reproduce the before/after pair's "after" digest
   (same-seed determinism).  Host time is not sampled here: perfbench's
   region_day workload measures it, and bench/ab.py gates it. *)

let word_bytes = Sys.word_size / 8
let peak_rss_bytes () = (Gc.stat ()).Gc.top_heap_words * word_bytes

let macro_sweep () =
  List.map
    (fun shards -> (shards, Region_sim.run { Region_sim.default_config with Region_sim.shards }))
    [ 1; 2; 4; 8 ]

let macro_checks region sweep =
  let digests = List.map (fun (_, r) -> r.Region_sim.digest) sweep in
  let shard_equivalent =
    match digests with [] -> false | d :: rest -> List.for_all (( = ) d) rest
  in
  let deterministic =
    match List.assoc_opt Region_sim.default_config.Region_sim.shards sweep with
    | Some r -> r.Region_sim.digest = region.Experiments.region_after.Region_sim.digest
    | None -> false
  in
  (deterministic, shard_equivalent)

let macro () =
  banner
    "Macro — region-scale engine (2,000 vSwitches; paper Fig. 13: >99.9% of overloads resolved)";
  let region = Experiments.region_overloads () in
  let b = region.Experiments.region_before and a = region.Experiments.region_after in
  note "region: %d servers, %d modeled vNICs, %d modeled flows, %d hotspots"
    b.Region_sim.servers b.Region_sim.vnics_modeled b.Region_sim.flows_modeled
    b.Region_sim.hotspots;
  note "overloads before: %d   after: %d   resolved: %.1f%%   (detections %d, activations %d)"
    b.Region_sim.overloads a.Region_sim.overloads region.Experiments.resolved_pct
    a.Region_sim.detections a.Region_sim.activations;
  let sweep = macro_sweep () in
  note "%7s %12s %22s" "shards" "events" "digest";
  List.iter
    (fun (shards, r) -> note "%7d %12d %22d" shards r.Region_sim.events r.Region_sim.digest)
    sweep;
  let deterministic, shard_equivalent = macro_checks region sweep in
  note "deterministic: %b   shard-equivalent: %b" deterministic shard_equivalent;
  banner "Macro — crash-storm MTTR chaos (DESIGN.md §13)";
  let mttr = Experiments.region_mttr () in
  let s = mttr.Experiments.storm in
  note
    "storm: %d crashes, %d restarts, %d ctl takeover(s); MTTR P50 %.3f s P99 %.3f s; \
     blackholed ticks %d (post-convergence %d); deterministic: %b"
    s.Region_sim.crashes s.Region_sim.restarts s.Region_sim.ctl_takeovers
    s.Region_sim.mttr_p50 s.Region_sim.mttr_p99 s.Region_sim.blackholed_ticks
    s.Region_sim.late_blackholed mttr.Experiments.storm_deterministic;
  let cc = Experiments.crash_cycles () in
  note
    "endurance: %d crash/restart cycles (%d reconciles, %d repairs); conservation %b, \
     BE conservation %b, batches leaked %d, final CPS %.0f"
    cc.Experiments.cycles cc.Experiments.cyc_reconciles cc.Experiments.cyc_repairs
    cc.Experiments.conservation_ok cc.Experiments.be_conservation_ok
    cc.Experiments.batches_leaked cc.Experiments.final_cps;
  banner "Macro — SLO elastic control plane (ROADMAP item 4)";
  let sr = Experiments.slo_ramp () in
  let c = sr.Experiments.slo_clean and x = sr.Experiments.slo_chaos in
  note
    "ramp ×%.1f: pool %d..%d (peak %d, end %d); P99 within budget %.1f%% of ticks; \
     %d out / %d in, %d oscillation(s); deterministic: %b"
    c.Region_sim.offered_ratio c.Region_sim.pool_min c.Region_sim.pool_max
    c.Region_sim.pool_at_peak c.Region_sim.pool_at_end
    (100.0 *. c.Region_sim.within_budget_fraction)
    c.Region_sim.slo_scale_outs c.Region_sim.slo_scale_ins
    c.Region_sim.oscillations sr.Experiments.slo_deterministic;
  note
    "chaos (rack partition): %d suspect(s) at peak, %d suppressed tick(s), \
     pool moves in partition %d, %d oscillation(s)"
    x.Region_sim.partition_suspects_max x.Region_sim.slo_suppressed_ticks
    x.Region_sim.pool_moves_in_partition x.Region_sim.oscillations

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core data structures.

   The slow-path numbers here bound the paper's CPS ceiling (§2.3,
   Table 3): every new connection pays one classification + pipeline
   walk, so ns/op for the ACL backends and the megaflow cache translate
   directly into connections per second per core. *)

let micro_acl_rules = 1_000
let micro_rule_scales = [ 1_000; 10_000; 100_000 ]

let micro_scale_name n =
  if n mod 1_000 = 0 then string_of_int (n / 1_000) ^ "k" else string_of_int n

(* Deny rules confined to 172/8, so the probe tuple (src 10.0.0.1)
   misses every rule: the linear backend pays the full scan, TSS one
   hash probe per mask shape, the learned index one model probe per
   iSet layer.  The generator is scale-honest — mask diversity grows
   with the rule count the way production ACLs grow shapes as tenants
   accumulate rules (6 shapes at 1k, 24 at 10k, 48 at 100k once
   port-range rules join), so TSS's probe list lengthens at 10k/100k
   while the learned index keeps its handful of iSet layers.  Per
   prefix length, rule blocks are made distinct by an odd-multiplier
   bijection over the 2^(len-8) aligned blocks of 172/8 (no accidental
   duplicate intervals at scale). *)
let micro_acl_lens n =
  if n <= 1_000 then [| 16; 24; 32 |]
  else if n <= 10_000 then Array.init 12 (fun i -> 20 + i)
  else Array.init 12 (fun i -> 21 + i)

let micro_make_rules n =
  let lens = micro_acl_lens n in
  let nlens = Array.length lens in
  let with_ports = n > 10_000 in
  Array.init n (fun i ->
      let len = lens.(i mod nlens) in
      let k = i / nlens in
      let block = k * 2654435761 land ((1 lsl (len - 8)) - 1) in
      let base = Int32.of_int ((172 lsl 24) lor (block lsl (32 - len))) in
      (* proto/port presence keys off [k], not [i]: [i mod nlens] and
         [i]'s low bits are correlated (nlens divides 4's multiples),
         which would collapse the shape product back to [nlens]. *)
      Nezha_tables.Acl.rule ~priority:(i + 1)
        ~src:(Nezha_net.Ipv4.Prefix.make (Nezha_net.Ipv4.of_int32 base) len)
        ?proto:(if k land 1 = 0 then Some Nezha_net.Five_tuple.Tcp else None)
        ?dst_ports:(if with_ports && k land 2 = 0 then Some (1024, 65535) else None)
        Nezha_tables.Acl.Deny)

let micro_make_acl_n n = Nezha_tables.Acl.of_rules (Array.to_list (micro_make_rules n))

(* Probe packets cycled by the acl benchmarks, half hits half misses.
   Hits stride evenly over the ruleset (a TCP packet inside the rule's
   source block to a port every generated rule accepts); misses sit in
   address space no rule covers.  Classification cost is what the
   backends are measured on, and both halves matter: hits exercise
   TSS's bucket walks against the model's predicted windows, misses
   force the linear scan to its full length (the paper's memory wall)
   where TSS pays one warm hash miss per mask shape. *)
let micro_probe_mask = 255

let micro_make_probes rules =
  let n = Array.length rules in
  let stride = max 1 (n / (micro_probe_mask + 1)) in
  Array.init (micro_probe_mask + 1) (fun j ->
      let src =
        if j land 1 = 0 then begin
          let r = rules.((j * stride) mod n) in
          let p = Option.get r.Nezha_tables.Acl.src in
          let len = Nezha_net.Ipv4.Prefix.length p in
          let off = if len >= 32 then 0 else j land ((1 lsl (32 - len)) - 1) in
          Nezha_net.Ipv4.of_int32
            (Int32.add
               (Nezha_net.Ipv4.to_int32 (Nezha_net.Ipv4.Prefix.base p))
               (Int32.of_int off))
        end
        else Nezha_net.Ipv4.of_octets 10 ((j * 7) land 255) ((j * 13) land 255) 1
      in
      Nezha_net.Five_tuple.make ~src ~dst:(Nezha_net.Ipv4.of_octets 203 0 113 9)
        ~src_port:4000 ~dst_port:2048 ~proto:Nezha_net.Five_tuple.Tcp)

let micro_make_acl () = micro_make_acl_n micro_acl_rules

(* Run a list of Bechamel tests and return (name, ns/op) in test order. *)
let run_micro_tests tests =
  let open Bechamel in
  let open Toolkit in
  let results =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let ns_of name =
    let est key =
      match Hashtbl.find_opt results key with
      | None -> None
      | Some r -> (
        match Bechamel.Analyze.OLS.estimates r with Some [ est ] -> Some est | Some _ | None -> None)
    in
    match est ("micro/" ^ name) with
    | Some v -> v
    | None -> ( match est name with Some v -> v | None -> Float.nan)
  in
  List.map
    (fun test -> let name = Test.name test in (name, ns_of name))
    tests
  |> List.concat_map (fun (name, v) ->
         (* Grouped test names come back as "micro/<name>". *)
         let name =
           match String.index_opt name '/' with
           | Some i -> String.sub name (i + 1) (String.length name - i - 1)
           | None -> name
         in
         [ (name, v) ])

let micro_results () =
  let open Bechamel in
  let ip = Nezha_net.Ipv4.of_octets in
  let lpm =
    let t = Nezha_tables.Lpm.create () in
    for i = 0 to 999 do
      Nezha_tables.Lpm.insert t (Nezha_net.Ipv4.Prefix.make (ip 10 (i / 256) (i mod 256) 0) 24) i
    done;
    t
  in
  let tuple =
    Nezha_net.Five_tuple.make ~src:(ip 10 0 0 1) ~dst:(ip 10 1 77 5) ~src_port:43210
      ~dst_port:443 ~proto:Nezha_net.Five_tuple.Tcp
  in
  (* dst < src, so session_hash takes its reversing branch. *)
  let tuple_rev =
    Nezha_net.Five_tuple.make ~src:(ip 10 1 77 5) ~dst:(ip 10 0 0 1) ~src_port:443
      ~dst_port:43210 ~proto:Nezha_net.Five_tuple.Tcp
  in
  (* One classifier per (scale, backend), each pinned via [Fixed] so the
     sweep measures every engine at every scale (the learned index at 1k
     is expected to lose to TSS — that asymmetry is what the [Auto]
     policy encodes).  Primed with one lookup so the bench loop never
     pays the one-time index build. *)
  let make_acl_matrix scales =
    List.map
      (fun n ->
        let rules = micro_make_rules n in
        let acl = Nezha_tables.Acl.of_rules (Array.to_list rules) in
        let probes = micro_make_probes rules in
        ( n,
          probes,
          List.map
            (fun backend ->
              let policy = Nezha_tables.Classifier.Fixed backend in
              let c = Nezha_tables.Classifier.of_acl ~policy (Nezha_tables.Acl.copy acl) in
              ignore (Nezha_tables.Classifier.lookup c tuple : Nezha_tables.Classifier.verdict);
              (backend, c))
            Nezha_tables.Classifier.[ Linear; Tuple_space; Learned ] ))
      scales
  in
  let acl_name backend n =
    Printf.sprintf "acl_%s_%s" (Nezha_tables.Classifier.backend_to_string backend)
      (micro_scale_name n)
  in
  let acl_tests_of matrix =
    List.concat_map
      (fun (n, probes, backends) ->
        List.map
          (fun (backend, c) ->
            let idx = ref 0 in
            Test.make ~name:(acl_name backend n)
              (Staged.stage (fun () ->
                   let i = !idx in
                   idx := (i + 1) land micro_probe_mask;
                   Nezha_tables.Classifier.lookup c (Array.unsafe_get probes i))))
          backends)
      matrix
  in
  let acl_memory_of matrix =
    List.concat_map
      (fun (n, _, backends) ->
        List.map
          (fun (backend, c) -> (acl_name backend n, Nezha_tables.Classifier.memory_bytes c))
          backends)
      matrix
  in
  let acl_matrix = make_acl_matrix [ micro_acl_rules ] in
  let acl_tests = acl_tests_of acl_matrix in
  let vpc = Nezha_net.Vpc.make 7 in
  let ruleset =
    let rs = Nezha_vswitch.Ruleset.create ~vni:9 ~acl:(micro_make_acl ()) () in
    Nezha_vswitch.Ruleset.add_route rs (Nezha_net.Ipv4.Prefix.make (ip 10 0 0 0) 8);
    Nezha_vswitch.Ruleset.add_mapping rs
      { Nezha_vswitch.Vnic.Addr.vpc; ip = ip 10 1 77 5 }
      (ip 192 168 1 2);
    rs
  in
  (* Prime the megaflow cache so the loop below measures the hit path. *)
  (match Nezha_vswitch.Ruleset.lookup ruleset ~vpc ~flow_tx:tuple with
  | Some _ -> ()
  | None -> failwith "micro: ruleset probe unroutable");
  let flow_key =
    Nezha_tables.Flow_key.of_packet_fields ~vpc ~flow:tuple
  in
  let sessions () =
    Nezha_tables.Flow_table.create ~entry_overhead:40 ~value_bytes:(fun _ -> 64)
      ~default_aging:8.0 ()
  in
  let ft_upsert = sessions () in
  let ft_find = sessions () in
  ignore (Nezha_tables.Flow_table.insert ft_find ~now:0.0 flow_key 1 : Nezha_tables.Admission.t);
  let ft_cycle = sessions () in
  let upsert_now = ref 0.0 in
  let cycle_now = ref 0.0 in
  let pkt =
    Nezha_net.Packet.create ~vpc ~flow:tuple ~direction:Nezha_net.Packet.Tx
      ~flags:Nezha_net.Packet.syn ~payload_len:100 ()
  in
  let encoded = Nezha_net.Packet.encode pkt in
  (* Engine kernels: one schedule plus one engine turn with [n] events
     pending, so the queue holds [n] throughout.  Delays cycle through a
     seeded table spread over [n] seconds, so new events land all over
     the heap rather than always at its tail. *)
  let sim_event n =
    let sim = Sim.create () in
    let rng = Rng.create 7 in
    let delays = Array.init 1024 (fun _ -> Rng.float rng (float_of_int n)) in
    let noop (_ : Sim.t) = () in
    for i = 0 to n - 1 do
      ignore (Sim.schedule sim ~delay:delays.(i land 1023) noop : Sim.handle)
    done;
    let idx = ref 0 in
    Test.make ~name:(Printf.sprintf "sim_event_%d" n)
      (Staged.stage (fun () ->
           let i = !idx in
           idx := (i + 1) land 1023;
           ignore (Sim.schedule sim ~delay:(Array.unsafe_get delays i) noop : Sim.handle);
           Sim.step sim))
  in
  let tests =
    [
      Test.make ~name:"five_tuple_hash" (Staged.stage (fun () -> Nezha_net.Five_tuple.hash tuple));
      Test.make ~name:"five_tuple_session_hash"
        (Staged.stage (fun () -> Nezha_net.Five_tuple.session_hash tuple_rev));
      Test.make ~name:"lpm_lookup_1k"
        (Staged.stage (fun () -> Nezha_tables.Lpm.lookup lpm (ip 10 1 77 5)));
    ]
    @ acl_tests
    @ [
      Test.make ~name:"acl_cached_1k"
        (Staged.stage (fun () ->
             Nezha_vswitch.Ruleset.lookup ruleset ~vpc ~flow_tx:tuple));
      Test.make ~name:"flow_table_insert"
        (Staged.stage (fun () ->
             upsert_now := !upsert_now +. 0.001;
             Nezha_tables.Flow_table.insert ft_upsert ~now:!upsert_now flow_key 1));
      Test.make ~name:"flow_table_find"
        (Staged.stage (fun () -> Nezha_tables.Flow_table.find ft_find flow_key));
      Test.make ~name:"flow_table_insert_expire"
        (Staged.stage (fun () ->
             cycle_now := !cycle_now +. 10.0;
             ignore
               (Nezha_tables.Flow_table.insert ft_cycle ~now:!cycle_now flow_key 1
                 : Nezha_tables.Admission.t);
             Nezha_tables.Flow_table.expire ft_cycle ~now:(!cycle_now +. 9.0)
               ~on_expire:(fun _ _ -> ())));
      Test.make ~name:"packet_encode" (Staged.stage (fun () -> Nezha_net.Packet.encode pkt));
      Test.make ~name:"packet_decode" (Staged.stage (fun () -> Nezha_net.Packet.decode encoded));
      Test.make ~name:"state_codec_roundtrip"
        (Staged.stage (fun () ->
             let st = Nezha_vswitch.State.init ~first_dir:Nezha_net.Packet.Tx () in
             Nezha_vswitch.State.decode (Nezha_vswitch.State.encode st)));
      sim_event 64;
      sim_event 4096;
      ]
  in
  let core = run_micro_tests tests in
  (* Rule-scale sweep: one Bechamel run per scale, with only that
     scale's matrix live.  Multi-MB live indexes tax every allocating
     op's incremental-GC slices (measured: ~40x inflation on the
     ns-scale tests when the 100k matrix is built up front), and the
     tax is additive to every backend — enough to drown the backend
     ratios the check.sh gate watches.  Compacting between runs
     releases the previous scale's index before the next is timed. *)
  let scale, scale_memory =
    List.fold_left
      (fun (rs, ms) n ->
        Gc.compact ();
        let matrix = make_acl_matrix [ n ] in
        let r = run_micro_tests (acl_tests_of matrix) in
        (rs @ r, ms @ acl_memory_of matrix))
      ([], [])
      (List.filter (fun n -> n <> micro_acl_rules) micro_rule_scales)
  in
  (core @ scale, acl_memory_of acl_matrix @ scale_memory)

let micro_speedups results =
  let ns name = try List.assoc name results with Not_found -> Float.nan in
  let ratio a b = ns a /. ns b in
  [
    ("tss_vs_linear", ratio "acl_linear_1k" "acl_tss_1k");
    ("cached_vs_linear", ratio "acl_linear_1k" "acl_cached_1k");
    ("cached_vs_tss", ratio "acl_tss_1k" "acl_cached_1k");
    (* The rule-scale story: TSS's probe list grows with mask diversity,
       the learned index does not — the [Auto] policy flips to it at
       10k+.  check.sh gates on these staying > 1. *)
    ("learned_vs_tss_10k", ratio "acl_tss_10k" "acl_learned_10k");
    ("learned_vs_tss_100k", ratio "acl_tss_100k" "acl_learned_100k");
    ("learned_vs_linear_100k", ratio "acl_linear_100k" "acl_learned_100k");
  ]

(* ------------------------------------------------------------------ *)
(* Batch-size sweep: ns per *packet* for the flow-key-grouped slow-path
   kernels as the burst grows.  This is the amortization the batched
   dataplane (Pbatch + local_batch/process_batch grouping) banks on: a
   burst cycling [micro_batch_flows] flows pays one resolution per
   unique key and follower-priced work for the rest, so ns/packet must
   fall as the batch size rises past the flow count. *)

let micro_batch_sizes = [ 1; 8; 32; 128 ]
let micro_batch_flows = 4

let micro_batch_results () =
  let open Bechamel in
  let ip = Nezha_net.Ipv4.of_octets in
  let vpc = Nezha_net.Vpc.make 7 in
  let flows =
    Array.init micro_batch_flows (fun i ->
        Nezha_net.Five_tuple.make ~src:(ip 10 0 0 1) ~dst:(ip 10 1 77 (5 + i))
          ~src_port:(43210 + i) ~dst_port:443 ~proto:Nezha_net.Five_tuple.Tcp)
  in
  let keys =
    Array.map (fun f -> Nezha_tables.Flow_key.of_packet_fields ~vpc ~flow:f) flows
  in
  let ruleset =
    let rs = Nezha_vswitch.Ruleset.create ~vni:9 ~acl:(micro_make_acl ()) () in
    Nezha_vswitch.Ruleset.add_route rs (Nezha_net.Ipv4.Prefix.make (ip 10 0 0 0) 8);
    Array.iter
      (fun (f : Nezha_net.Five_tuple.t) ->
        Nezha_vswitch.Ruleset.add_mapping rs
          { Nezha_vswitch.Vnic.Addr.vpc; ip = f.Nezha_net.Five_tuple.dst }
          (ip 192 168 1 2))
      flows;
    (* Prime the megaflow cache: the sweep measures the steady state. *)
    Array.iter
      (fun f ->
        match Nezha_vswitch.Ruleset.lookup rs ~vpc ~flow_tx:f with
        | Some _ -> ()
        | None -> failwith "micro batch: sweep flow unroutable")
      flows;
    rs
  in
  let tss =
    Nezha_tables.Classifier.(of_acl ~policy:(Fixed Tuple_space)) (micro_make_acl ())
  in
  Array.iter
    (fun f -> ignore (Nezha_tables.Classifier.lookup tss f : Nezha_tables.Classifier.verdict))
    flows;
  let ft =
    Nezha_tables.Flow_table.create ~entry_overhead:40 ~value_bytes:(fun _ -> 64)
      ~default_aging:8.0 ()
  in
  Array.iter
    (fun k -> ignore (Nezha_tables.Flow_table.insert ft ~now:0.0 k 1 : Nezha_tables.Admission.t))
    keys;
  let make_batch n =
    let b = Nezha_net.Pbatch.create ~capacity:n () in
    for i = 0 to n - 1 do
      Nezha_net.Pbatch.push b
        (Nezha_net.Packet.create ~vpc ~flow:flows.(i mod micro_batch_flows)
           ~direction:Nezha_net.Packet.Tx ~flags:Nezha_net.Packet.syn ())
    done;
    b
  in
  (* The grouping loop of the batched datapath in miniature: linear-scan
     dedup of flow keys (bursts hold a handful of flows), the leader
     resolves, followers pay only the mirrored-accounting price. *)
  let grouped batch ~leader ~follower =
    let seen = Array.make micro_batch_flows flows.(0) in
    fun () ->
      let m = ref 0 in
      Nezha_net.Pbatch.iter batch (fun p ->
          let f = p.Nezha_net.Packet.flow in
          let rec find i =
            if i >= !m then -1
            else if Nezha_net.Five_tuple.equal seen.(i) f then i
            else find (i + 1)
          in
          let g = find 0 in
          if g >= 0 then follower g
          else begin
            seen.(!m) <- f;
            leader !m;
            incr m
          end)
  in
  let tests =
    List.concat_map
      (fun n ->
        let batch_cached = make_batch n
        and batch_tss = make_batch n
        and batch_ft = make_batch n in
        [
          Test.make
            ~name:(Printf.sprintf "batch_cached_n%d" n)
            (Staged.stage
               (grouped batch_cached
                  ~leader:(fun g ->
                    ignore
                      (Nezha_vswitch.Ruleset.lookup ruleset ~vpc ~flow_tx:flows.(g)
                        : Nezha_vswitch.Ruleset.lookup_result option))
                  ~follower:(fun _ -> Nezha_vswitch.Ruleset.note_megaflow_hit ruleset)));
          Test.make
            ~name:(Printf.sprintf "batch_tss_n%d" n)
            (Staged.stage
               (grouped batch_tss
                  ~leader:(fun g ->
                    ignore
                      (Nezha_tables.Classifier.lookup tss flows.(g)
                        : Nezha_tables.Classifier.verdict))
                  ~follower:(fun _ -> ())));
          Test.make
            ~name:(Printf.sprintf "batch_flow_table_n%d" n)
            (Staged.stage
               (grouped batch_ft
                  ~leader:(fun g -> ignore (Nezha_tables.Flow_table.find ft keys.(g) : int option))
                  ~follower:(fun _ -> ())));
        ])
      micro_batch_sizes
  in
  let ns = run_micro_tests tests in
  let per_packet path =
    List.map
      (fun n ->
        let total = List.assoc (Printf.sprintf "batch_%s_n%d" path n) ns in
        (n, total /. float_of_int n))
      micro_batch_sizes
  in
  List.map (fun path -> (path, per_packet path)) [ "cached"; "tss"; "flow_table" ]

let micro () =
  let results, memory = micro_results () in
  banner "Microbenchmarks (ns per call)";
  List.iter (fun (name, ns) -> note "%-34s %10.1f ns" name ns) results;
  note "";
  note "ACL classification, 1k-100k rules (paper §2.3: classification bounds the CPS ceiling):";
  List.iter
    (fun (name, s) -> note "  %-24s %6.1fx" name s)
    (micro_speedups results);
  note "";
  note "Classifier index memory:";
  List.iter (fun (name, b) -> note "  %-24s %10d B" name b) memory;
  note "";
  note "Batch-size sweep (ns per packet, %d flows per burst):" micro_batch_flows;
  note "  %-12s %s" "path"
    (String.concat ""
       (List.map (fun n -> Printf.sprintf "%10s" (Printf.sprintf "n=%d" n)) micro_batch_sizes));
  List.iter
    (fun (path, pts) ->
      note "  %-12s %s" path
        (String.concat "" (List.map (fun (_, ns) -> Printf.sprintf "%8.1f  " ns) pts)))
    (micro_batch_results ())

(* ------------------------------------------------------------------ *)
(* Machine-readable output: each JSON-capable experiment contributes a
   section to the --json document.  The latency summaries come from the
   telemetry histogram summarizer, so the bench and the simulator's
   --metrics dumps share one schema for percentile material. *)

let json_summary h = Telemetry.json_of_summary (Telemetry.summarize_histogram h)

(* Tcp_crr records latencies in seconds; export microseconds. *)
let json_summary_us h =
  let s = Telemetry.summarize_histogram h in
  let us v = v *. 1e6 in
  Telemetry.json_of_summary
    {
      s with
      Telemetry.mean = us s.Telemetry.mean;
      min = us s.Telemetry.min;
      max = us s.Telemetry.max;
      p50 = us s.Telemetry.p50;
      p90 = us s.Telemetry.p90;
      p99 = us s.Telemetry.p99;
      p999 = us s.Telemetry.p999;
      p9999 = us s.Telemetry.p9999;
    }

let json_fig9 () =
  let rows =
    List.map Experiments.json_of_fig9_row (Experiments.fig9 ~fes_list:[ 1; 2; 3; 4; 6; 8 ] ())
  in
  let without, with_ = Experiments.fig9_latency () in
  Json.Obj
    [
      ("gains", Json.List rows);
      ( "latency_us",
        Json.Obj [ ("without", json_summary_us without); ("with", json_summary_us with_) ] );
    ]

let json_table4 () =
  Json.Obj [ ("completion_ms", json_summary (Experiments.table4 ~events:100 ())) ]

let json_micro () =
  let results, memory = micro_results () in
  let sweep = micro_batch_results () in
  Json.Obj
    [
      ("acl_rules", Json.Int micro_acl_rules);
      ("acl_rule_scales", Json.List (List.map (fun n -> Json.Int n) micro_rule_scales));
      ("ns_per_op", Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) results));
      ( "memory_bytes",
        Json.Obj (List.map (fun (name, b) -> (name, Json.Int b)) memory) );
      ( "speedup",
        Json.Obj (List.map (fun (name, s) -> (name, Json.Float s)) (micro_speedups results)) );
      ( "batch_sweep",
        Json.Obj
          (List.map
             (fun (path, pts) ->
               ( path,
                 Json.Obj
                   (List.map (fun (n, ns) -> (string_of_int n, Json.Float ns)) pts) ))
             sweep) );
    ]

let json_macro () =
  let region = Experiments.region_overloads () in
  let sweep = macro_sweep () in
  let deterministic, shard_equivalent = macro_checks region sweep in
  Json.Obj
    [
      ("region", Experiments.json_of_region_overloads region);
      ( "sweep",
        Json.List
          (List.map
             (fun (shards, r) ->
               Json.Obj
                 [
                   ("shards", Json.Int shards);
                   ("events", Json.Int r.Region_sim.events);
                   ("digest", Json.Int r.Region_sim.digest);
                 ])
             sweep) );
      ("deterministic", Json.Bool deterministic);
      ("shard_equivalent", Json.Bool shard_equivalent);
      ("storm", Experiments.json_of_region_mttr (Experiments.region_mttr ()));
      ("crash_cycles", Experiments.json_of_crash_cycles (Experiments.crash_cycles ()));
      ("slo", Experiments.json_of_slo_ramp (Experiments.slo_ramp ()));
      ("peak_rss_bytes", Json.Int (peak_rss_bytes ()));
    ]

(* The SLO ramp at reduced scale — same gates, tier-1 time budget
   (bench/check.sh --smoke). *)
let json_slo_smoke () =
  Json.Obj
    [
      ( "slo",
        Experiments.json_of_slo_ramp
          (Experiments.slo_ramp ~cfg:Experiments.slo_smoke_config ()) );
    ]

let json_experiments =
  [
    ("fig9", json_fig9);
    ("table4", json_table4);
    ("micro", json_micro);
    ("macro", json_macro);
    ("slo_smoke", json_slo_smoke);
  ]

let run_json ~path names =
  let names = if names = [] then List.map fst json_experiments else names in
  let sections =
    List.map
      (fun name ->
        match List.assoc_opt name json_experiments with
        | Some f ->
          note "computing %s ..." name;
          (name, f ())
        | None ->
          Printf.eprintf "no JSON output for %S (available: %s)\n" name
            (String.concat ", " (List.map fst json_experiments));
          exit 1)
      names
  in
  let doc = Json.Obj [ ("schema", Json.String "nezha-bench/1"); ("experiments", Json.Obj sections) ] in
  let text = Json.to_string_pretty doc in
  (try
     let oc = open_out path in
     output_string oc text;
     output_char oc '\n';
     close_out oc
   with Sys_error e ->
     Printf.eprintf "cannot write %s: %s\n" path e;
     exit 1);
  (* Self-check: the written document must parse back. *)
  (match Json.of_string text with
  | Ok reread when Json.equal reread doc -> ()
  | Ok _ -> failwith "--json self-check: document changed across a round-trip"
  | Error e -> failwith ("--json self-check: written JSON does not parse: " ^ e));
  note "wrote %s (%d experiment sections)" path (List.length sections)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table1", table1);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("table3", table3);
    ("table4", table4);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("table5", table5);
    ("tableA1", tableA1);
    ("figA1", figA1);
    ("appB2", appB2);
    ("ablations", ablations);
    ("micro", micro);
    ("macro", macro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec extract_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | [ "--json" ] ->
      Printf.eprintf "--json needs a file argument\n";
      exit 1
    | a :: rest -> extract_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let rec extract_attribute acc = function
    | "--attribute" :: rest -> (true, List.rev_append acc rest)
    | a :: rest -> extract_attribute (a :: acc) rest
    | [] -> (false, List.rev acc)
  in
  let json_path, args = extract_json [] args in
  let attribute, args = extract_attribute [] args in
  (* --attribute swaps fig12 for its critical-path-split variant. *)
  let experiments =
    if attribute then
      List.map (fun (n, f) -> if n = "fig12" then (n, fig12_attr) else (n, f)) experiments
    else experiments
  in
  if attribute && not (List.mem "fig12" args) then begin
    Printf.eprintf "--attribute only applies to fig12 (run: main.exe fig12 --attribute)\n";
    exit 1
  end;
  match (json_path, args) with
  | Some path, names -> run_json ~path names
  | None, [ "--list" ] -> List.iter (fun (name, _) -> print_endline name) experiments
  | None, [] ->
    Printf.printf "Nezha reproduction bench — regenerating every table and figure\n";
    List.iter (fun (_, f) -> f ()) experiments
  | None, names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S (try --list)\n" name;
          exit 1)
      names
