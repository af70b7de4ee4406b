(* The reproduction harness: one registry entry per table and figure of
   the paper's evaluation, plus the region-scale macro run, the
   microbenchmarks and the reduced-scale SLO smoke.  Each entry is a
   name, the paper's claim and a run that returns the section as JSON;
   the text report, [--list] and [--json] all read that one list.

   Usage:
     bench/main.exe                 run every entry, as text
     bench/main.exe fig9 table3     run selected entries
     bench/main.exe paper           every paper experiment (all entries
                                    but micro, macro and slo_smoke,
                                    which have their own BENCH files
                                    and gates)
     bench/main.exe --list [NAMES]  list entry names (NAMES may be a
                                    group, e.g. [--list paper])
     bench/main.exe [NAMES] --json FILE
                                    write the selected sections to FILE
                                    as one JSON document instead of
                                    printing them

   Text mode prints each entry's claim as a banner, then renders its
   JSON section: a list of flat records as an aligned table, anything
   else as [key: value] lines, floats at 4 significant digits. *)

open Nezha_engine
open Nezha_workloads
open Nezha_harness
open Nezha_core
open Nezha_telemetry

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* The one text renderer *)

let cell = function
  | Json.Null -> Some "null"
  | Json.Bool b -> Some (string_of_bool b)
  | Json.Int i -> Some (string_of_int i)
  | Json.Float f when Float.abs f >= 1e4 -> Some (Printf.sprintf "%.0f" f)
  | Json.Float f -> Some (Printf.sprintf "%.4g" f)
  | Json.String s -> Some s
  | Json.List _ | Json.Obj _ -> None

let is_cell v = cell v <> None
let cell_text v = Option.value (cell v) ~default:""

let flat_record = function
  | Json.Obj fields -> List.for_all (fun (_, v) -> is_cell v) fields
  | _ -> false

(* One aligned row per record under a header of the first record's keys;
   text columns align left, numbers right. *)
let print_table pad rows =
  let first = match rows with Json.Obj fields :: _ -> fields | _ -> [] in
  let text row k = Option.fold ~none:"" ~some:cell_text (Json.member k row) in
  let columns =
    List.map
      (fun (k, v) ->
        let width =
          List.fold_left (fun w r -> max w (String.length (text r k))) (String.length k) rows
        in
        match v with
        | Json.String _ -> Printf.sprintf "%-*s" width
        | _ -> Printf.sprintf "%*s" width)
      first
  in
  let line cells = print_endline (pad ^ String.concat "  " (List.map2 ( @@ ) columns cells)) in
  line (List.map fst first);
  List.iter (fun r -> line (List.map (fun (k, _) -> text r k) first)) rows

let rec render pad = function
  | Json.List (_ :: _ as rows) when List.for_all flat_record rows -> print_table pad rows
  | Json.List items when List.for_all is_cell items ->
    print_endline (pad ^ "[" ^ String.concat ", " (List.map cell_text items) ^ "]")
  | Json.List items ->
    List.iter
      (fun v ->
        print_endline (pad ^ "-");
        render (pad ^ "  ") v)
      items
  | Json.Obj fields ->
    List.iter
      (fun (k, v) ->
        match cell v with
        | Some s -> print_endline (pad ^ k ^ ": " ^ s)
        | None ->
          print_endline (pad ^ k ^ ":");
          render (pad ^ "  ") v)
      fields
  | v -> print_endline (pad ^ cell_text v)

(* ------------------------------------------------------------------ *)
(* Sections computed in the bench itself: the fleet model (§2.2, §6.3)
   and the cost models (Table 5, Fig. A1) *)

let pct x = Json.Float (100.0 *. x)
let cause_name cause = Json.String (Format.asprintf "%a" Region.pp_cause cause)

let fig2 () =
  let rng = Rng.create 42 in
  let pts = Region.high_cps_vm_sample rng ~n:10_000 in
  let vm_cpu = Array.map fst pts and sw_cpu = Array.map snd pts in
  let below60 = Array.fold_left (fun a v -> if v < 0.6 then a + 1 else a) 0 vm_cpu in
  Json.Obj
    [
      ("vswitch_cpu_min_pct", pct (Array.fold_left Float.min 1.0 sw_cpu));
      ("vm_cpu_p50_pct", pct (Stats.percentile vm_cpu 50.0));
      ("vm_share_below_60_pct", pct (float_of_int below60 /. 10_000.0));
    ]

let fig3 () =
  let rng = Rng.create 42 in
  let fleet = Region.sample_fleet rng ~n:100_000 in
  let counts = Region.classify Region.default_capacities fleet in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  Json.List
    (List.map
       (fun (cause, n) ->
         Json.Obj
           [
             ("cause", cause_name cause);
             ("share_pct", pct (float_of_int n /. float_of_int (max 1 total)));
             ("vswitches", Json.Int n);
           ])
       counts)

(* One row of percentiles, in percent, per resource or demand. *)
let pct_row label name stats =
  Json.Obj ((label, Json.String name) :: List.map (fun (k, v) -> (k, pct v)) stats)

let fig4 () =
  let rng = Rng.create 42 in
  let fleet = Region.sample_fleet rng ~n:50_000 in
  let row name arr =
    pct_row "resource" name
      [
        ("avg_pct", Stats.mean arr);
        ("p90_pct", Stats.percentile arr 90.0);
        ("p99_pct", Stats.percentile arr 99.0);
        ("p999_pct", Stats.percentile arr 99.9);
        ("p9999_pct", Stats.percentile arr 99.99);
      ]
  in
  Json.List
    [
      row "cpu" (Array.map (fun p -> p.Region.cpu) fleet);
      row "memory" (Array.map (fun p -> p.Region.mem) fleet);
    ]

let table1 () =
  let row name q =
    pct_row "demand" name
      [
        ("p50_pct", q 0.5);
        ("p90_pct", q 0.9);
        ("p99_pct", q 0.99);
        ("p999_pct", q 0.999);
        ("p9999_pct", q 0.9999);
      ]
  in
  Json.List
    [
      row "cps" Region.cps_demand_quantile;
      row "flows" Region.flows_demand_quantile;
      row "vnics" Region.vnics_demand_quantile;
    ]

let fig13 () =
  let rng = Rng.create 42 in
  Json.List
    (List.map
       (fun cause ->
         let days =
           Region.daily_overloads rng ~n_vswitches:20_000 ~capacities:Region.default_capacities
             ~cause ~days:30
         in
         let before = List.fold_left (fun a d -> a + d.Region.before) 0 days in
         let after = List.fold_left (fun a d -> a + d.Region.after) 0 days in
         Json.Obj
           [
             ("cause", cause_name cause);
             ("before_per_month", Json.Int before);
             ("after_per_month", Json.Int after);
             ("resolved_pct", pct (1.0 -. (float_of_int after /. float_of_int (max 1 before))));
           ])
       [ Region.Cps; Region.Flows; Region.Vnics ])

let fig15 () =
  let rng = Rng.create 42 in
  Json.List
    (List.init 5 (fun i ->
         let sizes = Region.state_size_samples (Rng.split rng) ~n:20_000 in
         Json.Obj
           [
             ("region", Json.Int (i + 1));
             ("avg_bytes", Json.Float (Stats.mean sizes));
             ("max_bytes", Json.Float (Array.fold_left Float.max 0.0 sizes));
           ]))

let table5 () =
  let solution sol =
    let c = Costs.cost_of sol in
    Json.Obj
      [
        ("solution", Json.String (Format.asprintf "%a" Costs.pp_solution sol));
        ("hardware_pm", Json.Float c.Costs.hardware_dev_pm);
        ("software_pm", Json.Float c.Costs.software_dev_pm);
        ("iteration_pm", Json.Float c.Costs.iteration_pm);
        ("scale_out_days_min", Json.Float c.Costs.scale_out_days_min);
        ("scale_out_days_max", Json.Float c.Costs.scale_out_days_max);
      ]
  in
  Json.Obj
    [
      ("solutions", Json.List [ solution Costs.Sailfish; solution Costs.Nezha ]);
      ("nezha_vs_sailfish_effort_pct", pct (Costs.development_ratio ()));
    ]

let figA1 () =
  let rng = Rng.create 42 in
  let avg draw = Json.Float (List.fold_left ( +. ) 0.0 (List.init 40 (fun _ -> draw ())) /. 40.0) in
  Json.List
    (List.map
       (fun (v, m) ->
         Json.Obj
           [
             ("vcpus", Json.Int v);
             ("mem_gb", Json.Int m);
             ("downtime_s", avg (fun () -> Region.migration_downtime_s rng ~vcpus:v ~mem_gb:m));
             ("completion_s", avg (fun () -> Region.migration_completion_s rng ~vcpus:v ~mem_gb:m));
           ])
       [ (8, 32); (16, 64); (32, 128); (64, 256); (128, 1024) ])

(* ------------------------------------------------------------------ *)
(* Sections over the typed [Experiments] results (§6.2 testbed, the
   ablations, App. B) *)

let json_rows encode rows = Json.List (List.map encode rows)

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

let fig9 () =
  let without, with_ = Experiments.fig9_latency () in
  Json.Obj
    [
      ("gains", json_rows Experiments.json_of_fig9_row (Experiments.fig9 ()));
      ( "vnics_wide",
        json_rows
          (fun (fes, g) -> Json.Obj [ ("fes", Json.Int fes); ("vnics_gain", Json.Float g) ])
          (Experiments.fig9_vnics ()) );
      ( "latency_us",
        Json.Obj [ ("without", json_summary_us without); ("with", json_summary_us with_) ] );
    ]

let tableA1 () =
  json_rows
    (fun (size, cols) ->
      Json.Obj
        (("pkt_bytes", Json.Int size)
        :: List.map
             (fun (rules, mpps) -> (Printf.sprintf "mpps_%d_rules" rules, Json.Float mpps))
             cols))
    (Experiments.tableA1 ())

let ablations () =
  Json.Obj
    [
      ("sirius", Experiments.json_of_sirius_vs_nezha (Experiments.ablation_sirius ()));
      ( "load_balancing",
        json_rows Experiments.json_of_lb_ablation (Experiments.ablation_flow_vs_packet_lb ()) );
      ( "state_slots",
        json_rows Experiments.json_of_state_size_ablation (Experiments.ablation_state_size ()) );
      ( "failover_retransmit",
        Experiments.json_of_failover_retx (Experiments.ablation_failover_retransmit ()) );
      ( "fe_locality",
        json_rows Experiments.json_of_locality_row (Experiments.ablation_fe_locality ()) );
      ("notify_per_data_packet", Json.Float (Experiments.ablation_notify_rate ()));
    ]

(* ------------------------------------------------------------------ *)
(* Region-scale macrobenchmark: the Fig. 13 region run and its
   simulated-result checks.  The region section is the measured
   before/after-Nezha overload count; the sweep reruns the "after"
   config at growing shard counts.  Every sweep entry must carry the
   same digest (shard-count invariance), and the entry at the default
   shard count must reproduce the before/after pair's "after" digest
   (same-seed determinism).  Host time is not sampled here: perfbench's
   region_day workload measures it, and bench/ab.py gates it. *)

let macro () =
  let region = Experiments.region_overloads () in
  let sweep =
    List.map
      (fun shards -> (shards, Region_sim.run { Region_sim.default_config with Region_sim.shards }))
      [ 1; 2; 4; 8 ]
  in
  let shard_equivalent =
    match sweep with
    | [] -> false
    | (_, r) :: rest -> List.for_all (fun (_, r') -> r'.Region_sim.digest = r.Region_sim.digest) rest
  in
  let deterministic =
    match List.assoc_opt Region_sim.default_config.Region_sim.shards sweep with
    | Some r -> r.Region_sim.digest = region.Experiments.region_after.Region_sim.digest
    | None -> false
  in
  Json.Obj
    [
      ("region", Experiments.json_of_region_overloads region);
      ( "sweep",
        json_rows
          (fun (shards, r) ->
            Json.Obj
              [
                ("shards", Json.Int shards);
                ("events", Json.Int r.Region_sim.events);
                ("digest", Json.Int r.Region_sim.digest);
              ])
          sweep );
      ("deterministic", Json.Bool deterministic);
      ("shard_equivalent", Json.Bool shard_equivalent);
      ("storm", Experiments.json_of_region_mttr (Experiments.region_mttr ()));
      ("crash_cycles", Experiments.json_of_crash_cycles (Experiments.crash_cycles ()));
      ("slo", Experiments.json_of_slo_ramp (Experiments.slo_ramp ()));
      ("peak_rss_bytes", Json.Int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8)));
    ]

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

(* A CRR client's session keys: one client address, consecutive source
   ports. *)
let micro_crr_key i =
  Nezha_tables.Flow_key.of_packet_fields ~vpc:(Nezha_net.Vpc.make 7)
    ~flow:
      (Nezha_net.Five_tuple.make ~src:(Nezha_net.Ipv4.of_octets 10 0 0 1)
         ~dst:(Nezha_net.Ipv4.of_octets 10 1 77 5) ~src_port:(10_000 + i) ~dst_port:80
         ~proto:Nezha_net.Five_tuple.Tcp)

(* 20,000 CRR-like sessions, probed as hits in a seeded shuffled order.
   The probe keys are built afresh, as a packet's lookup builds them, so
   a hit compares fields rather than pointers. *)
let micro_flow_table_find_20k () =
  let n = 20_000 in
  let table =
    Nezha_tables.Flow_table.create ~entry_overhead:40 ~value_bytes:(fun _ -> 64)
      ~default_aging:8.0 ()
  in
  for i = 0 to n - 1 do
    ignore
      (Nezha_tables.Flow_table.insert table ~now:0.0 (micro_crr_key i) i
        : Nezha_tables.Admission.t)
  done;
  let probes = Array.init n micro_crr_key in
  Rng.shuffle (Rng.create 11) probes;
  let idx = ref 0 in
  Bechamel.Test.make ~name:"flow_table_find_20k"
    (Bechamel.Staged.stage (fun () ->
         let i = !idx in
         idx := if i + 1 = n then 0 else i + 1;
         Nezha_tables.Flow_table.find table (Array.unsafe_get probes i)))

(* Session churn at 20,000 live sessions: each op inserts a new session
   and runs the aging sweep, which expires, slot by slot, the sessions
   inserted one aging period (20,000 ops) earlier.  Keys cycle through
   twice the live count, so every insert is of a key that has aged out.
   The table is warmed to that steady state before timing. *)
let micro_flow_table_churn_20k () =
  let live = 20_000 and aging = 8.0 in
  let n = 2 * live in
  let dt = aging /. float_of_int live in
  let keys = Array.init n micro_crr_key in
  let table =
    Nezha_tables.Flow_table.create ~entry_overhead:40 ~value_bytes:(fun _ -> 64)
      ~default_aging:aging ()
  in
  let idx = ref 0 and now = ref 0.0 in
  let on_expire _ _ = () in
  let op () =
    let i = !idx in
    idx := if i + 1 = n then 0 else i + 1;
    now := !now +. dt;
    ignore
      (Nezha_tables.Flow_table.insert table ~now:!now (Array.unsafe_get keys i) i
        : Nezha_tables.Admission.t);
    Nezha_tables.Flow_table.expire table ~now:!now ~on_expire
  in
  for _ = 1 to 2 * n do
    ignore (op () : int)
  done;
  Bechamel.Test.make ~name:"flow_table_churn_20k" (Bechamel.Staged.stage op)

(* A timer wheel holding 32,768 live loops, as a region run's servers
   keep: one per slot of a 32,768-slot wheel, linked in a seeded
   shuffled order so consecutive firings touch scattered nodes.  Each op
   advances one tick, firing one timer, which re-arms itself one
   revolution ahead. *)
let micro_timer_wheel_rearm_32k () =
  let n = 32_768 in
  let w = Timer_wheel.create ~tick:1.0 ~slots:n in
  let order = Array.init n Fun.id in
  Rng.shuffle (Rng.create 13) order;
  let handles = Array.make n Timer_wheel.none in
  Array.iter
    (fun i ->
      handles.(i) <- Timer_wheel.add w ~now:0.0 ~deadline:(float_of_int i +. 0.5) i)
    order;
  let now = ref 0.0 in
  let fire i =
    let deadline = !now +. float_of_int n -. 0.5 in
    ignore (Timer_wheel.rearm w handles.(i) ~now:!now ~deadline : Timer_wheel.timer)
  in
  Bechamel.Test.make ~name:"timer_wheel_rearm_32k"
    (Bechamel.Staged.stage (fun () ->
         now := !now +. 1.0;
         Timer_wheel.advance w ~now:!now fire))

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
  (* Each session-scale kernel (a session table or a timer wheel at
     region scale) gets a Bechamel run of its own, like the rule-scale
     sweep below, so its live heap does not tax the other kernels. *)
  Gc.compact ();
  let sessions_20k =
    List.concat_map
      (fun kernel ->
        Gc.compact ();
        run_micro_tests [ kernel () ])
      [ micro_flow_table_find_20k; micro_flow_table_churn_20k; micro_timer_wheel_rearm_32k ]
  in
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
  (core @ sessions_20k @ scale, acl_memory_of acl_matrix @ scale_memory)

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
  let sweep = micro_batch_results () in
  let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  Json.Obj
    [
      ("acl_rules", Json.Int micro_acl_rules);
      ("acl_rule_scales", Json.List (List.map (fun n -> Json.Int n) micro_rule_scales));
      ("ns_per_op", floats results);
      ("memory_bytes", Json.Obj (List.map (fun (name, b) -> (name, Json.Int b)) memory));
      ("speedup", floats (micro_speedups results));
      ( "batch_sweep",
        Json.Obj
          (List.map
             (fun (path, pts) ->
               (path, floats (List.map (fun (n, ns) -> (string_of_int n, ns)) pts)))
             sweep) );
    ]

(* ------------------------------------------------------------------ *)
(* The registry *)

type entry = { name : string; claim : string; run : unit -> Json.t }

let entry name claim run = { name; claim; run }

let registry =
  [
    entry "fig2"
      "Fig. 2 — CPU of high-CPS VMs vs their vSwitches (paper: vSwitch >95% everywhere; 90% of VMs <60%)"
      fig2;
    entry "fig3" "Fig. 3 — hotspot distribution (paper: CPS ~61%, #flows ~30%, #vNICs ~9%)" fig3;
    entry "fig4"
      "Fig. 4 — utilization CDF over O(10K) vSwitches (paper CPU: avg 5 / P90 15 / P99 41 / P999 68 / P9999 90%; mem: 1.5 / 15 / 34 / 93 / 96%)"
      fig4;
    entry "table1"
      "Table 1 — service usage share of the P9999 user (paper: CPS 0.53/1.41/6.41/18.38/100%)" table1;
    entry "fig9"
      "Fig. 9 — performance gain vs #FEs (paper: CPS ~3.3x and #flows ~3.8x plateau beyond 4 FEs; #vNICs proportional to #FEs; vnics_wide: every vNIC's tables replicate on min(4, #FEs) FEs)"
      fig9;
    entry "fig10"
      "Fig. 10 — CPS vs #vCPUs in the VM (paper: without Nezha flat at the vSwitch cap; with Nezha grows sublinearly, ~3.25x from 8 to 64 cores)"
      (fun () -> json_rows Experiments.json_of_fig10_row (Experiments.fig10 ()));
    entry "fig11"
      "Fig. 11 — CPU utilization during offloading/scaling (paper: BE climbs to 70% -> offload to 4 FEs -> BE ~10%; FE >40% -> scale-out to 8)"
      (fun () -> json_rows Experiments.json_of_fig11_point (Experiments.fig11 ()));
    entry "fig12"
      "Fig. 12 — end-to-end latency (us) vs load (paper: identical <70%; small extra-hop cost after offload; without Nezha explodes past capacity)"
      (fun () -> json_rows Experiments.json_of_fig12_row (Experiments.fig12 ()));
    entry "fig12_attribute"
      "Fig. 12, attributed — P50/P99 latency (us) split into local vs remote-hop components (local + remote = e2e)"
      (fun () -> json_rows Experiments.json_of_fig12_attr_row (Experiments.fig12_attribute ()));
    entry "table3"
      "Table 3 — middlebox gains (paper: CPS 4x/4.4x/3x; #vNICs >40x; #flows 5.04x/50.4x/15.3x)"
      (fun () -> json_rows Experiments.json_of_table3_row (Experiments.table3 ()));
    entry "table4"
      "Table 4 — completion time (ms) for activating offloading (paper: avg 1077 / P90 1503 / P99 2087 / P999 2858 ms)"
      (fun () -> Json.Obj [ ("completion_ms", json_summary (Experiments.table4 ~events:250 ())) ]);
    entry "fig13"
      "Fig. 13 — daily overloads before/after Nezha (paper: >99.9% resolved for CPS and #flows; 100% for #vNICs)"
      fig13;
    entry "fig14"
      "Fig. 14 — packet loss during FE crash at t = 4 s (paper: a surge lasting ~2 s, bounded by the dead FE's 1/M traffic share)"
      (fun () ->
        json_rows
          (fun (t, loss) -> Json.Obj [ ("t", Json.Float t); ("loss", Json.Float loss) ])
          (Experiments.fig14 ()));
    entry "fig15" "Fig. 15 — average state size (paper: 5-8 B vs the fixed 64 B slot)" fig15;
    entry "table5"
      "Table 5 — deployment costs in person-months (paper: Sailfish 100+48+20 P-M, 1-3 months to scale out; Nezha 15 P-M, 1-7 days)"
      table5;
    entry "tableA1"
      "Table A1 — rule-lookup throughput in Mpps (paper: 6.61 at 64B/0 rules, declining to 4.76 at 512B/1000 rules)"
      tableA1;
    entry "figA1"
      "Fig. A1 — VM migration downtime vs resources (paper: grows with vCPUs and memory; vs Nezha's ~2 s offload, independent of VM size, §7.2)"
      figA1;
    entry "appB2"
      "App. B.2 — 30-day scale-out accounting (paper: 2499 offloads, 10062 FEs, <=66 scale-outs = 2.6%)"
      (fun () -> Experiments.json_of_appB2_result (Experiments.appB2 ()));
    entry "ablations"
      "Ablations — Nezha vs Sirius replication on 4 idle SmartNICs; flow- vs packet-level LB (§3.2.3); 64 B vs 8 B state slots (§7.1); failover with TCP retransmission (§6.3.4); FE placement locality (App. B.1); notify rate (§3.2.2)"
      ablations;
    entry "micro"
      "Microbenchmarks — ns per call (paper §2.3: classification bounds the CPS ceiling), classifier index memory, batch-size sweep in ns per packet"
      micro;
    entry "macro"
      "Macro — region-scale engine (2,000 servers; paper Fig. 13: >99.9% of overloads resolved), crash-storm MTTR chaos (DESIGN.md §13), SLO elastic control plane"
      macro;
    entry "slo_smoke" "SLO elastic control plane at reduced scale (bench/check.sh --smoke)"
      (fun () ->
        let ramp = Experiments.slo_ramp ~cfg:Experiments.slo_smoke_config () in
        Json.Obj [ ("slo", Experiments.json_of_slo_ramp ramp) ]);
  ]

(* [paper] is every entry but these three, which have their own BENCH
   files and gates. *)
let own_gates = [ "micro"; "macro"; "slo_smoke" ]

let select names =
  let lookup = function
    | "paper" -> List.filter (fun e -> not (List.mem e.name own_gates)) registry
    | name -> (
      match List.find_opt (fun e -> e.name = name) registry with
      | Some e -> [ e ]
      | None ->
        Printf.eprintf "unknown experiment %S (try --list)\n" name;
        exit 1)
  in
  if names = [] then registry else List.concat_map lookup names

let run_text entries =
  List.iter
    (fun e ->
      note "\n==== %s: %s ====" e.name e.claim;
      render "" (e.run ()))
    entries

let run_json ~path entries =
  let sections =
    List.map
      (fun e ->
        note "computing %s ..." e.name;
        (e.name, e.run ()))
      entries
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

let () =
  let rec parse json list names = function
    | "--json" :: path :: rest -> parse (Some path) list names rest
    | [ "--json" ] ->
      Printf.eprintf "--json needs a file argument\n";
      exit 1
    | "--list" :: rest -> parse json true names rest
    | name :: rest -> parse json list (name :: names) rest
    | [] -> (json, list, List.rev names)
  in
  let json, list, names = parse None false [] (List.tl (Array.to_list Sys.argv)) in
  let entries = select names in
  if list then List.iter (fun e -> print_endline e.name) entries
  else match json with Some path -> run_json ~path entries | None -> run_text entries
