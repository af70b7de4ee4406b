(* Failover walkthrough (§4.4, Fig. 14): crash one of the four FEs
   serving an offloaded vNIC and watch detection, removal and
   replenishment happen while traffic keeps flowing.

     dune exec examples/failover_demo.exe *)

open Nezha_engine
open Nezha_vswitch
open Nezha_fabric
open Nezha_core
open Nezha_harness
open Nezha_workloads

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  let t = Testbed.create () in
  let o = Testbed.offload t () in
  Controller.start t.Testbed.ctl;
  let fes0 = Controller.offload_fe_servers o in
  say "Offloaded to FEs on servers %s" (String.concat ", " (List.map string_of_int fes0));
  say "Monitor: a probe every %.2fs, reply due within %.2fs, %d misses declare a failure, \
       removal suspended when %.0f%% of FEs fail at once"
    Monitor.interval Monitor.probe_timeout Monitor.misses_to_fail
    (100.0 *. Monitor.mass_failure_fraction);

  (* Steady connection load through the pool. *)
  Array.iter
    (fun client ->
      ignore
        (Tcp_crr.start ~sim:t.Testbed.sim ~rng:(Rng.split t.Testbed.rng) ~vpc:t.Testbed.vpc
           ~client ~server:t.Testbed.server ~rate:300.0 ~duration:12.0 ()
          : Tcp_crr.t))
    t.Testbed.clients;

  let victim = List.hd fes0 in
  ignore
    (Sim.schedule t.Testbed.sim ~delay:3.0 (fun sim ->
         say "";
         say "t=%.1fs  CRASH: SmartNIC on server %d dies" (Sim.now sim) victim;
         Smartnic.crash (Vswitch.nic (Fabric.vswitch t.Testbed.fabric victim)))
      : Sim.handle);

  (* Narrate the monitor's view every second. *)
  let last_fes = ref fes0 in
  Sim.every t.Testbed.sim ~period:1.0 (fun sim ->
      let now = Sim.now sim in
      if now <= 14.0 then begin
        let fes = Controller.offload_fe_servers o in
        if fes <> !last_fes then begin
          say "t=%.1fs  FE set changed: %s -> %s" now
            (String.concat "," (List.map string_of_int !last_fes))
            (String.concat "," (List.map string_of_int fes));
          last_fes := fes
        end;
        true
      end
      else false);

  Sim.run t.Testbed.sim ~until:16.0;
  let fes1 = Controller.offload_fe_servers o in
  let victim_vs = Fabric.vswitch t.Testbed.fabric victim in
  say "";
  say "Final FE set: %s (victim removed: %b, back at the minimum of 4: %b)"
    (String.concat ", " (List.map string_of_int fes1))
    (not (List.mem victim fes1))
    (List.length fes1 = 4);
  say "Monitor: %d probes sent, %d failure(s) declared" (Monitor.probes_sent (Controller.monitor t.Testbed.ctl))
    (Monitor.failures_declared (Controller.monitor t.Testbed.ctl));
  say "Packets blackholed at the dead FE during detection: %d (the 1/M share of ~2 s of traffic)"
    (Vswitch.drop_count victim_vs Nf.Nic_crashed);
  say "Connections accepted end-to-end: %d — the other FEs carried on, state never moved."
    (Vm.connections_accepted t.Testbed.server.Tcp_crr.vm)
