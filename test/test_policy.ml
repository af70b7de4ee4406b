(* Table-driven unit tests for the pure control-policy core (policy.mli):
   the Fig. 8 branches, the scale-out rate limit, the scale-in holdoff,
   drop-FE refill versus fallback, repair intents and the idle-tick
   fallback — synthetic inputs only, no simulation.  A QCheck model test
   drives random input sequences and checks the intent half of the
   conservation invariant and that no intent names an inactive
   offload. *)

open Nezha_engine
open Nezha_net
open Nezha_vswitch
open Nezha_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let vpc = Vpc.make 7
let addr i = { Vnic.Addr.vpc; ip = Ipv4.of_int32 (Int32.of_int (0x0a000000 + i)) }

let cfg =
  {
    Policy.report_interval = 1.0;
    auto_offload = true;
    auto_scale = true;
    auto_fallback = false;
    placement = Placement.Least_loaded;
  }

(* Two racks of four: servers 0-3 and 4-7. *)
let servers = 8

let fact ?(cpu = 0.1) ?(crashed = false) ?fe_served s =
  {
    Policy.server = s;
    rack = s / 4;
    vswitch = true;
    crashed;
    version = 1;
    peek = (cpu, 0.1);
    fe_served;
    suspect = false;
  }

let pool ?(now = 0.0) ?(be = 0) ?(facts = fun s -> fact s) () =
  { Policy.now; draw = Rng.create 1; be_rack = be / 4; candidates = Array.init servers (fun s -> facts s) }

let vnic = Vnic.id_of_int 1

let step v i = Policy.step v i

(* An offload of [addr 1] on server 0, activated with [fes]. *)
let offloaded ?(config = cfg) fes =
  let v = Policy.create config in
  let v, _ =
    step v
      (Policy.Offload
         { server = 0; vnic; addr = addr 1; num_fes = 4; avoid = []; version_ok = (fun _ -> true); pool = pool (); node = () })
  in
  let v, _ = step v (Policy.Pushed { id = 0; fes }) in
  let v, _ = step v (Policy.Activated { id = 0; at = 1.0 }) in
  v

let fes_of v = (Option.get (Policy.find v 0)).Policy.fes

let report ?(now = 1.0) ?(cpu = 0.1) ?(mem = 0.1) ?(fe_served = 0) ?(remote = 0) ?(busy = 0.0)
    ?(vnics = []) server =
  Policy.Report
    {
      Policy.server;
      now;
      cpu;
      mem;
      fe_served;
      first_served = (if fe_served > 0 then Some (addr 1) else None);
      remote_cycles = remote;
      busy;
      cpu_hz = 1e9;
      vnics;
    }

let load ?(tables = true) ?(slow = 0) ?(mem = 0) id =
  { Policy.vnic = Vnic.id_of_int id; tables; slow_execs = slow; mem_bytes = mem }

(* The intents' shapes, for table comparisons. *)
let shape : unit Policy.intent -> string = function
  | Policy.Offload_vnic { server; vnic } -> Printf.sprintf "offload %d/%d" server (Vnic.id_to_int vnic)
  | Push { fes; _ } -> Printf.sprintf "push [%s]" (String.concat ";" (List.map string_of_int fes))
  | Grow { add; avoid; or_fallback; _ } ->
    Printf.sprintf "grow +%d avoid [%s]%s" add
      (String.concat ";" (List.map string_of_int avoid))
      (if or_fallback then " or fallback" else "")
  | Serve_replica { server; _ } -> Printf.sprintf "serve %d" server
  | Evict_server s -> Printf.sprintf "evict %d" s
  | Shrink { remove; _ } -> Printf.sprintf "shrink -%d" remove
  | Route o -> Printf.sprintf "route [%s]" (String.concat ";" (List.map string_of_int o.Policy.fes))
  | Readvertise _ -> "readvertise"
  | Restore_route _ -> "restore-route"
  | Restore_fe { server; rpc; _ } -> Printf.sprintf "restore-fe %d%s" server (if rpc then " rpc" else "")
  | Reinstall_be _ -> "reinstall-be"
  | Unserve { server; _ } -> Printf.sprintf "unserve %d" server
  | Retire_replica_later { server; _ } -> Printf.sprintf "retire %d" server
  | Unwatch s -> Printf.sprintf "unwatch %d" s
  | Fall_back _ -> "fall-back"
  | Pin_flow { server; _ } -> Printf.sprintf "pin %d" server

let shapes l = List.map shape l
let check_shapes name expected got = Alcotest.(check (list string)) name expected (shapes got)

(* ------------------------------------------------------------------ *)
(* Fig. 8: one report, one decision.  Each row runs against the same
   fresh view with offload 0 on FEs 1-4. *)

let test_fig8_table () =
  let rows =
    [
      ("idle server holds", report 5 ~cpu:0.1, []);
      ("CPU above 70% offloads the heaviest vNIC by slow-path work",
        report 5 ~cpu:0.8 ~vnics:[ load 3 ~slow:10; load 4 ~slow:30; load 5 ~slow:20 ],
        [ "offload 5/4" ]);
      ("memory pressure picks by memory",
        report 5 ~cpu:0.2 ~mem:0.8 ~vnics:[ load 3 ~mem:90; load 4 ~mem:10 ], [ "offload 5/3" ]);
      ("exactly 70% does not trigger", report 5 ~cpu:0.7 ~vnics:[ load 3 ], []);
      ("a vNIC without local tables is not a candidate",
        report 5 ~cpu:0.9 ~vnics:[ load 3 ~tables:false ], []);
      ("an already offloaded vNIC is not offloaded twice",
        report 0 ~cpu:0.9 ~vnics:[ load 1 ], []);
      ("FE host above 40% under remote pressure doubles the FE set",
        report 1 ~cpu:0.5 ~fe_served:1 ~remote:900_000_000 ~busy:1.0, [ "grow +4 avoid []" ]);
      ("FE host above 40% under local pressure evicts its FEs",
        report 1 ~cpu:0.5 ~fe_served:1 ~remote:100_000_000 ~busy:1.0, [ "evict 1" ]);
      ("FE host at 40% holds", report 1 ~cpu:0.4 ~fe_served:1 ~remote:900_000_000 ~busy:1.0, []);
    ]
  in
  let v = offloaded [ 1; 2; 3; 4 ] in
  List.iter (fun (name, input, expected) -> check_shapes name expected (snd (step v input))) rows

let test_overload_count () =
  let v = Policy.create cfg in
  let v, _ = step v (report 2 ~cpu:0.96 ~mem:0.1) in
  let v, _ = step v (report 2 ~cpu:0.5 ~mem:0.97) in
  let v, _ = step v (report 2 ~cpu:0.95 ~mem:0.95) in
  check_int "strictly above 95%, CPU or memory" 2 (Policy.overloads v 2);
  check_int "total" 2 (Policy.total_overloads v);
  check_bool "last report kept" true (Policy.report v 2 = Some (0.95, 0.95))

(* Remote pressure scales one offload out at most once per 1.5 report
   intervals. *)
let test_scale_out_rate_limit () =
  let v = offloaded [ 1; 2; 3; 4 ] in
  let hot now i = report 1 ~now ~cpu:0.5 ~fe_served:1 ~remote:(i * 900_000_000) ~busy:(float_of_int i) in
  let v, first = step v (hot 1.0 1) in
  check_shapes "first report scales out" [ "grow +4 avoid []" ] first;
  let v, second = step v (hot 2.0 2) in
  check_shapes "one interval later: held" [] second;
  let _, third = step v (hot 2.6 3) in
  check_shapes "1.6 intervals later: scales again" [ "grow +4 avoid []" ] third

(* Scale-in: evicted servers are held off FE duty for 30 report
   intervals. *)
let test_scale_in_holdoff () =
  let v = offloaded [ 1; 2; 3; 4 ] in
  let v, is = step v (Policy.Scale_in_server { server = 1; served = [ addr 1 ]; now = 10.0 }) in
  check_shapes "route, refill avoiding the evicted server, retire, unwatch"
    [ "route [2;3;4]"; "grow +1 avoid [1]"; "retire 1"; "unwatch 1" ]
    is;
  let pick now = Policy.select v (pool ~now ()) ~be_server:0 ~exclude:[] ~count:8 () in
  check_bool "held off inside the window" false (List.mem 1 (pick 39.9));
  check_bool "eligible again after it" true (List.mem 1 (pick 40.0))

(* Candidate eligibility: ceilings, crashes, the BE itself, racks. *)
let test_candidate_filter () =
  let v = Policy.create cfg in
  let facts s =
    match s with
    | 1 -> fact ~cpu:0.31 s
    | 2 -> fact ~crashed:true s
    | 5 -> fact ~cpu:0.05 s
    | s -> fact ~cpu:(0.1 +. (0.01 *. float_of_int s)) s
  in
  check_bool "same rack first, least loaded within a tier" true
    (Policy.select v (pool ~facts ()) ~be_server:0 ~exclude:[] ~count:8 () = [ 3; 5; 4; 6; 7 ]);
  check_bool "version filter" true
    (Policy.select v (pool ~facts ()) ~be_server:0 ~exclude:[ 3 ] ~count:8 ~version_ok:(fun _ -> false) ()
    = []);
  check_bool "ceilings" true
    (Policy.idle_candidate ~cpu:0.3 ~mem:0.5 && not (Policy.idle_candidate ~cpu:0.3 ~mem:0.51));
  let _, is =
    step v
      (Policy.Offload
         { server = 0; vnic; addr = addr 1; num_fes = 3; avoid = [ 3; 4 ]; version_ok = (fun _ -> true);
           pool = pool ~facts (); node = () })
  in
  check_shapes "an offload never picks an avoided server" [ "push [5;6;7]" ] is

(* A dead FE is dropped and refilled; an offload that loses its last FE
   falls back when no refill lands. *)
let test_drop_fe_refill_or_fallback () =
  let v = offloaded [ 1; 2; 3; 4 ] in
  let v, is = step v (Policy.Dead { server = 2; served = [ addr 1 ] }) in
  check_shapes "refill to the floor" [ "unserve 2"; "route [1;3;4]"; "grow +1 avoid [2]" ] is;
  check_bool "dropped from the intent" true (fes_of v = [ 1; 3; 4 ]);
  let v', is = step v (Policy.Joined { id = 0; fes = [ 6 ] }) in
  check_shapes "the refill joins the routing" [ "route [1;3;4;6]" ] is;
  let _, is = step v' (Policy.Joined { id = 0; fes = [] }) in
  check_shapes "a batch whose pushes all failed joins nothing" [] is;
  let v = offloaded [ 1 ] in
  let v, is = step v (Policy.Dead { server = 1; served = [ addr 1 ] }) in
  check_shapes "last FE: refill or fall back, nothing to route" [ "unserve 1"; "grow +4 avoid [1] or fallback" ] is;
  check_bool "empty intent" true (fes_of v = [])

let healthy_be ?(be_open = true) ?(be_host_ok = true) ?(routed = true) replicas =
  { Policy.be_open; be_host_ok; replicas; routed }

let serving fes = List.map (fun s -> (s, Policy.Serving)) fes

(* Anti-entropy: each divergence yields its repair. *)
let test_repair_table () =
  let fes = [ 1; 2 ] in
  let rows =
    [
      ("installed: nothing to do", healthy_be (serving fes), [], false);
      ("BE tracker died, host up", healthy_be ~be_open:false (serving fes), [ "reinstall-be" ], true);
      ("BE tracker died, host down", healthy_be ~be_open:false ~be_host_ok:false (serving fes), [], true);
      ("replica lost", healthy_be [ (1, Policy.Serving); (2, Policy.Lost) ], [ "restore-fe 2 rpc" ], true);
      ("replica host down", healthy_be [ (1, Policy.Serving); (2, Policy.Gone) ], [], true);
      ("route lost", healthy_be ~routed:false (serving fes), [ "restore-route" ], true);
    ]
  in
  let v = offloaded fes in
  List.iter
    (fun (name, h, expected, repairing) ->
      let v', is = step v (Policy.Tick { health = [ (0, h) ] }) in
      check_shapes name expected is;
      check_bool (name ^ ": repairing") repairing (Option.get (Policy.find v' 0)).Policy.repairing;
      check_bool (name ^ ": conserved") true (Policy.conserved v' ~health:(fun _ -> h)))
    rows;
  (* A crash marks the offload repairing until a tick finds it whole. *)
  let v', _ = step v (Policy.Crashed 2) in
  check_bool "crash marks it repairing" true (Option.get (Policy.find v' 0)).Policy.repairing;
  let v', _ = step v' (Policy.Tick { health = [ (0, healthy_be (serving fes)) ] }) in
  check_bool "a whole dataplane clears it" false (Option.get (Policy.find v' 0)).Policy.repairing;
  (* Nothing is repaired before the activation completes. *)
  let v = Policy.create cfg in
  let v, _ =
    step v
      (Policy.Offload
         { server = 0; vnic; addr = addr 1; num_fes = 2; avoid = []; version_ok = (fun _ -> true); pool = pool (); node = () })
  in
  let _, is = step v (Policy.Tick { health = [ (0, healthy_be ~be_open:false []) ] }) in
  check_shapes "activating offload left alone" [] is

(* §4.2.2: fallback after [fallback_idle_ticks] idle ticks in a row; a
   busy tick resets the count. *)
let test_idle_tick_fallback () =
  let v = offloaded ~config:{ cfg with auto_fallback = true } [ 1; 2 ] in
  let idle_round v ~be_cpu =
    let v, _ = step v (report 0 ~cpu:be_cpu) in
    let v, _ = step v (report 1 ~cpu:0.01) in
    let v, _ = step v (report 2 ~cpu:0.01) in
    step v (Policy.Tick { health = [ (0, healthy_be (serving [ 1; 2 ])) ] })
  in
  let rec run v n acc =
    if n = 0 then (v, acc)
    else
      let v, is = idle_round v ~be_cpu:0.1 in
      run v (n - 1) (acc @ [ shapes is ])
  in
  let v, ticks = run v (Policy.fallback_idle_ticks - 1) [] in
  check_bool "held while counting" true (List.for_all (( = ) []) ticks);
  let v', is = idle_round v ~be_cpu:0.25 in
  check_shapes "a BE at the safe level resets the count" [] is;
  let _, is = idle_round v ~be_cpu:0.1 in
  check_shapes "the last idle tick falls back" [ "fall-back" ] is;
  let v', _ = run v' (Policy.fallback_idle_ticks - 1) [] in
  let _, is = idle_round v' ~be_cpu:0.1 in
  check_shapes "after a reset it takes the full run again" [ "fall-back" ] is

(* SLO verdicts grow the thinnest offload and shrink the fattest, never
   below the floor. *)
let test_slo_targets () =
  let v = offloaded [ 1; 2; 3; 4; 5; 6 ] in
  let _, is = step v (Policy.Slo (Slo.Scale_out 2)) in
  check_shapes "scale-out grows" [ "grow +2 avoid []" ] is;
  let _, is = step v (Policy.Slo (Slo.Scale_in 1)) in
  check_shapes "scale-in shrinks" [ "shrink -1" ] is;
  (* Loads 0.1 + 0.05 per served vNIC: 5 is the busiest, 4 and 6 tie. *)
  let facts s = fact ~fe_served:(match s with 5 -> 3 | 4 | 6 -> 1 | _ -> 2) s in
  let v', is = step v (Policy.Scale_in_offload { id = 0; remove = 5; pool = pool ~facts () }) in
  check_shapes "cross-rack and busiest first, clamped to the floor; unwatch a host left idle"
    [ "route [1;2;3;6]"; "readvertise"; "retire 5"; "unwatch 4"; "retire 4" ]
    is;
  check_int "at the floor" Policy.min_fes (List.length (fes_of v'))

(* ------------------------------------------------------------------ *)
(* Model test: random input sequences over a small world. *)

let ops_gen = QCheck.Gen.(list_size (int_range 1 80) (quad (int_bound 15) (int_bound 7) (int_bound 7) (int_bound 99)))

let nth_offload v k =
  match Policy.offloads v with [] -> None | os -> Some (List.nth os (k mod List.length os))

let input_of v (op, a, b, c) : unit Policy.input option =
  let facts s = fact ~cpu:(float_of_int (((s * 7) + c) mod 100) /. 100.0) ~crashed:(s = a && c < 20) ~fe_served:b s in
  let p = pool ~now:(float_of_int c) ~be:a ~facts () in
  let id k = Option.map (fun (o : unit Policy.offload) -> o.Policy.id) (nth_offload v k) in
  let random_fes = List.filter (fun s -> (c lsr (s mod 7)) land 1 = 1) [ a; b; (a + b) mod 8 ] in
  match op with
  | 0 ->
    Some
      (Policy.Offload
         { server = a; vnic = Vnic.id_of_int b; addr = addr b; num_fes = 1 + (c mod 4); avoid = []; version_ok = (fun _ -> true); pool = p; node = () })
  | 1 -> Option.map (fun id -> Policy.Pushed { id; fes = random_fes }) (id b)
  | 2 -> Option.map (fun id -> Policy.Activated { id; at = float_of_int c }) (id b)
  | 3 ->
    Some
      (report a ~now:(float_of_int c) ~cpu:(float_of_int c /. 100.0) ~fe_served:(b mod 2) ~remote:(c * 10_000_000)
         ~busy:(float_of_int c /. 10.0) ~vnics:[ load b ~slow:c ])
  | 4 ->
    Some
      (Policy.Tick
         {
           health =
             List.map
               (fun (o : unit Policy.offload) ->
                 let r s = if (s + c) mod 3 = 0 then Policy.Lost else Policy.Serving in
                 ( o.Policy.id,
                   healthy_be ~be_open:(c mod 5 <> 0) ~routed:(c mod 7 <> 0)
                     (List.map (fun s -> (s, r s)) o.Policy.fes) ))
               (Policy.offloads v);
         })
  | 5 -> Some (Policy.Dead { server = a; served = [ addr b ] })
  | 6 -> Some (Policy.Crashed a)
  | 7 ->
    Some
      (Policy.Restarted
         { server = a; fe_unserved = List.map (fun (o : unit Policy.offload) -> o.Policy.id) (Policy.offloads v); be_closed = [] })
  | 8 -> Some (Policy.Scale_in_server { server = a; served = [ addr b ]; now = float_of_int c })
  | 9 -> Option.map (fun id -> Policy.Scale_out { id; add = c mod 4; avoid = [ a ]; pool = p }) (id b)
  | 10 -> Option.map (fun id -> Policy.Scale_in_offload { id; remove = c mod 4; pool = p }) (id b)
  | 11 -> Option.map (fun id -> Policy.Fallback id) (id b)
  | 12 -> Option.map (fun id -> Policy.Retired id) (id b)
  | 13 -> Option.map (fun id -> Policy.Joined { id; fes = random_fes }) (id b)
  | 14 -> Option.map (fun id -> Policy.Migrate { id; to_server = a }) (id b)
  | _ -> Some (Policy.Slo (if c mod 2 = 0 then Slo.Scale_out (1 + (a mod 2)) else Slo.Scale_in (1 + (b mod 2))))

let offload_of : unit Policy.intent -> unit Policy.offload option = function
  | Policy.Push { o; _ }
  | Grow { o; _ }
  | Serve_replica { o; _ }
  | Shrink { o; _ }
  | Route o
  | Readvertise o
  | Restore_route o
  | Restore_fe { o; _ }
  | Reinstall_be o
  | Fall_back o
  | Pin_flow { o; _ } ->
    Some o
  | Offload_vnic _ | Evict_server _ | Unserve _ | Retire_replica_later _ | Unwatch _ -> None

let prop_model =
  QCheck.Test.make ~name:"random inputs: conservation after every tick, no intent for an inactive offload"
    ~count:300 (QCheck.make ops_gen) (fun ops ->
      let config = { cfg with auto_fallback = true } in
      let _ =
        List.fold_left
          (fun v op ->
            match input_of v op with
            | None -> v
            | Some input ->
              let v', intents = Policy.step v input in
              List.iter
                (fun i ->
                  match offload_of i with
                  | Some o when Policy.find v' o.Policy.id = None ->
                    QCheck.Test.fail_reportf "intent %s for inactive offload %d" (shape i) o.Policy.id
                  | Some _ | None -> ())
                intents;
              (match input with
              | Policy.Tick { health } ->
                if not (Policy.conserved v' ~health:(fun o -> List.assoc o.Policy.id health)) then
                  QCheck.Test.fail_report "conservation broken after a tick"
              | _ -> ());
              v')
          (Policy.create config) ops
      in
      true)

let () =
  Alcotest.run "policy"
    [
      ( "decision-table",
        [
          Alcotest.test_case "Fig. 8 branches" `Quick test_fig8_table;
          Alcotest.test_case "overload occurrences" `Quick test_overload_count;
          Alcotest.test_case "scale-out rate limit" `Quick test_scale_out_rate_limit;
          Alcotest.test_case "scale-in holdoff" `Quick test_scale_in_holdoff;
          Alcotest.test_case "candidate filter" `Quick test_candidate_filter;
          Alcotest.test_case "drop-FE refill or fallback" `Quick test_drop_fe_refill_or_fallback;
          Alcotest.test_case "repair intents" `Quick test_repair_table;
          Alcotest.test_case "idle-tick fallback" `Quick test_idle_tick_fallback;
          Alcotest.test_case "SLO targets" `Quick test_slo_targets;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
