(* nezha-sim: command-line driver for the Nezha reproduction.

     nezha_sim cps --fes 4 --middlebox lb    one CPS measurement
     nezha_sim flows --fes 4                 one #concurrent-flows measurement
     nezha_sim offload --fes 4               offload walkthrough with counters
     nezha_sim fleet --size 50000            region statistics

   The paper's tables and figures are experiments of the bench
   harness: [dune exec bench/main.exe -- --list] names them. *)

open Cmdliner
open Nezha_engine
open Nezha_core
open Nezha_workloads
open Nezha_harness
open Nezha_telemetry

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Testbed commands accept --metrics FILE: the testbed's telemetry
   registry is sampled during the run (0.5 s virtual-time period) and the
   full snapshot + time series lands in FILE as JSON. *)
let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write a telemetry snapshot (and sampled time series) as JSON to $(docv).")

let with_metrics metrics (t : Testbed.t) =
  match metrics with
  | None -> ()
  | Some _ -> Telemetry.start_sampler t.Testbed.telemetry ~sim:t.Testbed.sim ()

let dump_metrics metrics (t : Testbed.t) =
  match metrics with
  | None -> ()
  | Some path ->
    Telemetry.stop_sampler t.Testbed.telemetry;
    (try Telemetry.write_json_file ~at:(Sim.now t.Testbed.sim) t.Testbed.telemetry ~path
     with Sys_error e ->
       Printf.eprintf "nezha_sim: cannot write metrics: %s\n" e;
       exit 1);
    say "telemetry: %d metrics (%d sampled points) -> %s"
      (Telemetry.cardinality t.Testbed.telemetry)
      (Telemetry.samples_taken t.Testbed.telemetry)
      path

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")

let fes_arg =
  Arg.(value & opt int 4 & info [ "fes" ] ~docv:"N" ~doc:"Number of frontends to offload to.")

let middlebox_arg =
  let mb_conv =
    Arg.enum
      [ ("none", None);
        ("lb", Some Middlebox.Load_balancer);
        ("nat", Some Middlebox.Nat_gateway);
        ("tr", Some Middlebox.Transit_router) ]
  in
  Arg.(value & opt mb_conv None & info [ "middlebox" ] ~docv:"KIND"
         ~doc:"Configure the heavy vNIC as a middlebox: $(b,lb), $(b,nat), $(b,tr) or $(b,none).")

(* ------------------------------------------------------------------ *)

let cps_cmd =
  let run seed fes middlebox metrics =
    let t = Testbed.create ~seed ?middlebox () in
    let base = Testbed.measure_cps t () in
    say "local CPS capacity: %.0f" base;
    let t = Testbed.create ~seed ?middlebox () in
    ignore (Testbed.offload t ~num_fes:fes () : Controller.offload);
    with_metrics metrics t;
    let cps = Testbed.measure_cps t ~concurrency:1024 () in
    say "with %d FEs:        %.0f  (gain %.2fx)" fes cps (cps /. base);
    dump_metrics metrics t
  in
  Cmd.v
    (Cmd.info "cps" ~doc:"Measure CPS capacity with and without Nezha.")
    Term.(const run $ seed_arg $ fes_arg $ middlebox_arg $ metrics_arg)

let flows_cmd =
  let run seed fes =
    let local = Experiments.measure_flows ~seed ~fes:0 () in
    say "local #concurrent flows: %d" local;
    let flows = Experiments.measure_flows ~seed ~fes () in
    say "with %d FEs:             %d  (gain %.2fx)" fes flows
      (float_of_int flows /. float_of_int local)
  in
  Cmd.v
    (Cmd.info "flows" ~doc:"Measure sustained #concurrent flows with and without Nezha.")
    Term.(const run $ seed_arg $ fes_arg)

let offload_cmd =
  let run seed fes metrics =
    let t = Testbed.create ~seed () in
    let o = Testbed.offload t ~num_fes:fes () in
    say "offload complete: stage=%s"
      (match Controller.offload_stage o with Be.Final -> "final" | Be.Dual -> "dual-running");
    say "FEs on servers: %s"
      (String.concat ", " (List.map string_of_int (Controller.offload_fe_servers o)));
    (match Controller.offload_completed_at o with
    | Some at -> say "activation completed at t=%.3fs (trigger at t=0)" at
    | None -> ());
    with_metrics metrics t;
    ignore (Testbed.measure_cps t ~duration:2.0 () : float);
    let bc = Be.counters (Controller.offload_be o) in
    say "BE counters: tx-via-FE %d, rx-from-FE %d, notify %d, bounced %d"
      (Stats.Counter.value bc.Be.tx_via_fe)
      (Stats.Counter.value bc.Be.rx_from_fe)
      (Stats.Counter.value bc.Be.notify_received)
      (Stats.Counter.value bc.Be.bounced);
    List.iter
      (fun s ->
        match Controller.fe_service t.Testbed.ctl s with
        | Some fe ->
          let fc = Fe.counters fe in
          say "FE %d: lookups %d, cache hits %d, cached flows %d, rx->BE %d, tx finalized %d" s
            (Stats.Counter.value fc.Fe.rule_lookups)
            (Stats.Counter.value fc.Fe.fast_hits)
            (Fe.cached_flow_count fe)
            (Stats.Counter.value fc.Fe.rx_forwarded)
            (Stats.Counter.value fc.Fe.tx_finalized)
        | None -> ())
      (Controller.offload_fe_servers o);
    dump_metrics metrics t
  in
  Cmd.v
    (Cmd.info "offload" ~doc:"Offload the testbed's heavy vNIC and show the datapath counters.")
    Term.(const run $ seed_arg $ fes_arg $ metrics_arg)

let fleet_cmd =
  let size_arg =
    Arg.(value & opt int 50_000 & info [ "size" ] ~docv:"N" ~doc:"Number of vSwitches to sample.")
  in
  let run seed size =
    let rng = Rng.create seed in
    let fleet = Region.sample_fleet rng ~n:size in
    let cpus = Array.map (fun p -> p.Region.cpu) fleet in
    let mems = Array.map (fun p -> p.Region.mem) fleet in
    let line name arr =
      say "%-6s avg %5.1f%%  P90 %5.1f%%  P99 %5.1f%%  P999 %5.1f%%  P9999 %5.1f%%" name
        (100.0 *. Stats.mean arr)
        (100.0 *. Stats.percentile arr 90.0)
        (100.0 *. Stats.percentile arr 99.0)
        (100.0 *. Stats.percentile arr 99.9)
        (100.0 *. Stats.percentile arr 99.99)
    in
    line "CPU" cpus;
    line "memory" mems;
    let counts = Region.classify Region.default_capacities fleet in
    List.iter
      (fun (cause, n) -> say "hotspots from %-18s: %d" (Format.asprintf "%a" Region.pp_cause cause) n)
      counts
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Sample a synthetic region and print its utilization statistics.")
    Term.(const run $ seed_arg $ size_arg)

let status_cmd =
  let run seed metrics =
    let t = Testbed.create ~seed () in
    ignore (Testbed.offload t () : Controller.offload);
    Controller.start t.Testbed.ctl;
    with_metrics metrics t;
    ignore (Testbed.measure_cps t ~duration:2.0 () : float);
    Format.printf "%a@." Controller.pp_status t.Testbed.ctl;
    dump_metrics metrics t
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Offload, run traffic, and print the controller's operator view.")
    Term.(const run $ seed_arg $ metrics_arg)

let pcap_cmd =
  let out_arg =
    Arg.(value & opt string "nezha.pcap" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output capture file.")
  in
  let run seed out =
    let t = Testbed.create ~seed () in
    ignore (Testbed.offload t () : Controller.offload);
    let capture = Nezha_net.Pcap.create () in
    Nezha_fabric.Fabric.set_tap t.Testbed.fabric
      (Some (fun ~time pkt ->
           Nezha_net.Pcap.add capture ~time (Nezha_net.Frame.synthesize pkt)));
    ignore
      (Nezha_workloads.Tcp_crr.start ~sim:t.Testbed.sim ~rng:(Nezha_engine.Rng.split t.Testbed.rng)
         ~vpc:t.Testbed.vpc ~client:t.Testbed.clients.(0) ~server:t.Testbed.server ~rate:50.0
         ~duration:1.0 ()
        : Nezha_workloads.Tcp_crr.t);
    Nezha_engine.Sim.run t.Testbed.sim
      ~until:(Nezha_engine.Sim.now t.Testbed.sim +. 2.0);
    Nezha_net.Pcap.write_file capture out;
    say "wrote %d frames (VXLAN-GPE + NSH on the BE<->FE hops) to %s"
      (Nezha_net.Pcap.packet_count capture) out
  in
  Cmd.v
    (Cmd.info "pcap"
       ~doc:"Capture a short offloaded TCP_CRR run as a Wireshark-readable pcap file.")
    Term.(const run $ seed_arg $ out_arg)

let trace_cmd =
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also record the journey with the flight recorder and write it as \
                 Chrome trace-event JSON (load in chrome://tracing or Perfetto) to $(docv).")
  in
  let run seed json =
    let t = Testbed.create ~seed () in
    let o = Testbed.offload t () in
    Trace.set_enabled t.Testbed.trace true;
    let topo = Nezha_fabric.Fabric.topology t.Testbed.fabric in
    let name_of addr =
      match Nezha_fabric.Topology.server_of_ip topo addr with
      | Some s when s = t.Testbed.heavy_server -> Printf.sprintf "BE(server %d)" s
      | Some s when List.mem s (Controller.offload_fe_servers o) ->
        Printf.sprintf "FE(server %d)" s
      | Some s -> Printf.sprintf "server %d" s
      | None ->
        if Nezha_net.Ipv4.equal addr (Nezha_fabric.Topology.gateway_ip topo) then "gateway"
        else Nezha_net.Ipv4.to_string addr
    in
    let flow =
      Nezha_net.Five_tuple.make ~src:t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.ip
        ~dst:Testbed.heavy_ip ~src_port:47001 ~dst_port:80 ~proto:Nezha_net.Five_tuple.Tcp
    in
    let canon = Nezha_net.Five_tuple.canonical flow in
    say "Tracing one TCP_CRR connection (%s) through the offloaded datapath:"
      (Nezha_net.Five_tuple.to_string flow);
    say "";
    Nezha_fabric.Fabric.set_tap t.Testbed.fabric
      (Some (fun ~time pkt ->
           if
             Nezha_net.Five_tuple.equal
               (Nezha_net.Five_tuple.canonical pkt.Nezha_net.Packet.flow)
               canon
           then begin
             match pkt.Nezha_net.Packet.vxlan with
             | Some v ->
               let meta =
                 match pkt.Nezha_net.Packet.nsh with
                 | Some n ->
                   String.concat ""
                     [
                       (if n.Nezha_net.Packet.carried_state <> None then " +state" else "");
                       (if n.Nezha_net.Packet.carried_pre_actions <> None then " +pre-actions"
                        else "");
                       (if n.Nezha_net.Packet.notify then " NOTIFY" else "");
                     ]
                 | None -> ""
               in
               say "  t=%8.1f us  %-16s -> %-16s  %s [%s]%s"
                 (time *. 1e6)
                 (name_of v.Nezha_net.Packet.outer_src)
                 (name_of v.Nezha_net.Packet.outer_dst)
                 (Nezha_net.Five_tuple.to_string pkt.Nezha_net.Packet.flow)
                 (Format.asprintf "%a" Nezha_net.Packet.pp_flags pkt.Nezha_net.Packet.flags)
                 meta
             | None -> ()
           end));
    (* One full connect/request/response/close exchange. *)
    Nezha_fabric.Vm.set_app t.Testbed.server.Nezha_workloads.Tcp_crr.vm (fun _ pkt ->
        let reply flags payload_len =
          Nezha_vswitch.Vswitch.from_vm t.Testbed.server.Nezha_workloads.Tcp_crr.vs Testbed.heavy_vnic_id
            (Nezha_net.Packet.create ~vpc:t.Testbed.vpc
               ~flow:(Nezha_net.Five_tuple.reverse pkt.Nezha_net.Packet.flow)
               ~direction:Nezha_net.Packet.Tx ~flags ~payload_len ())
        in
        let f = pkt.Nezha_net.Packet.flags in
        if f.Nezha_net.Packet.syn then reply Nezha_net.Packet.syn_ack 0
        else if pkt.Nezha_net.Packet.payload_len > 0 then reply Nezha_net.Packet.ack 512
        else if f.Nezha_net.Packet.fin then reply Nezha_net.Packet.fin_ack 0);
    Nezha_fabric.Vm.set_app t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.vm (fun _ pkt ->
        let reply flags payload_len =
          Nezha_vswitch.Vswitch.from_vm t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.vs
            t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.vnic
            (Nezha_net.Packet.create ~vpc:t.Testbed.vpc
               ~flow:(Nezha_net.Five_tuple.reverse pkt.Nezha_net.Packet.flow)
               ~direction:Nezha_net.Packet.Tx ~flags ~payload_len ())
        in
        let f = pkt.Nezha_net.Packet.flags in
        if f.Nezha_net.Packet.syn && f.Nezha_net.Packet.ack then
          reply Nezha_net.Packet.ack 64
        else if pkt.Nezha_net.Packet.payload_len > 0 then reply Nezha_net.Packet.fin_ack 0);
    Nezha_vswitch.Vswitch.from_vm t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.vs
      t.Testbed.clients.(0).Nezha_workloads.Tcp_crr.vnic
      (Nezha_net.Packet.create ~vpc:t.Testbed.vpc ~flow ~direction:Nezha_net.Packet.Tx
         ~flags:Nezha_net.Packet.syn ());
    Nezha_engine.Sim.run t.Testbed.sim ~until:(Nezha_engine.Sim.now t.Testbed.sim +. 1.0);
    say "";
    say "Every hop between client and VM detours once through an FE: RX packets";
    say "pick up pre-actions there; TX packets carry the BE's state to be finalized.";
    match json with
    | None -> ()
    | Some path ->
      let tr = t.Testbed.trace in
      Trace.set_enabled tr false;
      let doc = Trace.to_chrome_json tr in
      let text = Json.to_string_pretty doc in
      (* Self-check: the exported document must round-trip through the
         in-tree parser unchanged. *)
      (match Json.of_string text with
      | Ok reread when Json.equal reread doc -> ()
      | Ok _ -> failwith "trace --json self-check: document changed across a round-trip"
      | Error e -> failwith ("trace --json self-check: written JSON does not parse: " ^ e));
      (try
         let oc = open_out path in
         output_string oc text;
         output_string oc "\n";
         close_out oc
       with Sys_error e ->
         Printf.eprintf "nezha_sim: cannot write %s: %s\n" path e;
         exit 1);
      say "";
      say "wrote %d spans over %d traces (Chrome trace-event JSON) to %s"
        (Trace.span_count tr)
        (List.length (Trace.trace_ids tr))
        path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a single connection's hop-by-hop journey across the BE/FE split \
             (optionally exporting the flight recorder as Chrome trace-event JSON).")
    Term.(const run $ seed_arg $ json_arg)

(* A float argument that [ok] accepts; anything else is a usage error. *)
let checked_float ~what ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "must be %s, got %s" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let chaos_cmd =
  let loss_arg =
    Arg.(value
         & opt (checked_float ~what:"a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)) 0.005
         & info [ "loss" ] ~docv:"P"
             ~doc:"Underlay drop probability at full ramp (default 0.5%).")
  in
  let no_partition_arg =
    Arg.(value & flag & info [ "no-partition" ]
           ~doc:"Skip the hard partition of a surviving FE's server at t=6s.")
  in
  let duration_arg =
    Arg.(value
         & opt (checked_float ~what:"at least 13" (fun d -> d >= 13.0)) 13.0
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Load duration, at least 13 s (the end of the fault schedule).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the full result (samples included) as JSON to $(docv).")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Exit non-zero unless the loss recovered after healing and the \
                 BE's offload-tracker conservation invariant holds.")
  in
  let chaos_seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")
  in
  let run seed loss no_partition duration json check =
    let r =
      Experiments.chaos ~seed ~loss ~partition:(not no_partition) ~duration ()
    in
    say "chaos (seed %d, %.2f%% loss%s):" seed (loss *. 100.0)
      (if no_partition then "" else ", partition at t=6s");
    say "  connections: offered %d, established %d, completed %d" r.Experiments.offered
      r.Experiments.established r.Experiments.completed;
    say "  BE tracker: tracked %d = acked %d + local-fallback %d + dropped %d + outstanding %d  %s"
      r.Experiments.tracked r.Experiments.acked r.Experiments.local_fallbacks
      r.Experiments.dropped r.Experiments.outstanding_end
      (if r.Experiments.conservation_ok then "[ok]" else "[VIOLATED]");
    say "  recovery: timeouts %d, retx %d (re-steered %d), local bypass %d, untracked %d"
      r.Experiments.timeouts r.Experiments.retx r.Experiments.resteered
      r.Experiments.local_bypass r.Experiments.untracked;
    say "  fault plane: %d probabilistic drops, %d partition drops" r.Experiments.injected_drops
      r.Experiments.partition_drops;
    say "  monitor: %d FE failures declared, %d mass-failure suppressions"
      r.Experiments.fe_failures_declared r.Experiments.mass_suspected;
    say "  end-window loss %.3f%% -> %s" (r.Experiments.end_loss *. 100.0)
      (if r.Experiments.recovered then "recovered" else "NOT RECOVERED");
    (match json with
    | None -> ()
    | Some path ->
      (* The run's input parameters, then the shared result encoding: the
         nezha-chaos/1 schema is the concatenation of the two. *)
      let inputs =
        [
          ("schema", Json.String "nezha-chaos/1");
          ("seed", Json.Int seed);
          ("loss", Json.Float loss);
          ("partition", Json.Bool (not no_partition));
          ("duration", Json.Float duration);
        ]
      in
      let j =
        match Experiments.json_of_chaos_result r with
        | Json.Obj fields -> Json.Obj (inputs @ fields)
        | other -> Json.Obj (inputs @ [ ("result", other) ])
      in
      (try
         let oc = open_out path in
         output_string oc (Json.to_string_pretty j);
         output_string oc "\n";
         close_out oc;
         say "wrote %s" path
       with Sys_error e ->
         Printf.eprintf "nezha_sim: cannot write %s: %s\n" path e;
         exit 1));
    if check && not (r.Experiments.recovered && r.Experiments.conservation_ok) then begin
      Printf.eprintf "nezha_sim chaos: check FAILED (recovered=%b conservation_ok=%b)\n"
        r.Experiments.recovered r.Experiments.conservation_ok;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the scripted fault-injection scenario (loss ramp, FE crash, partition, heal) \
             and report how the BE/monitor recovered.")
    Term.(const run $ chaos_seed_arg $ loss_arg $ no_partition_arg $ duration_arg $ json_arg $ check_arg)

let () =
  let doc =
    "Nezha (SIGCOMM'25) reproduction: SmartNIC vSwitch load sharing, simulated \
     (the paper's experiments: dune exec bench/main.exe -- --list)"
  in
  let info = Cmd.info "nezha_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ cps_cmd; flows_cmd; offload_cmd; fleet_cmd; pcap_cmd; trace_cmd; status_cmd; chaos_cmd ]))
