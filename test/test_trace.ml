(* Tests for the span-based tracing subsystem: the conservation
   invariant (local-only, offloaded, and retransmitted-under-loss
   flows), Chrome trace-event export, recorder semantics (sampling,
   ring capacity, disabled), fig12 attribution, and the controller's
   RPC retry policy. *)

open Nezha_fabric
open Nezha_core
open Nezha_harness
module Trace = Nezha_telemetry.Trace
module Json = Nezha_telemetry.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Conservation must hold to clock resolution: the timestamps are a few
   seconds of virtual time, so a nanosecond absorbs many ulps. *)
let tol = 1e-9

(* ------------------------------------------------------------------ *)
(* Conservation *)

let test_local_conservation () =
  let t = Testbed.create ~seed:7 () in
  let tr = t.Testbed.trace in
  Trace.set_enabled tr true;
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:0.5 () : Nezha_workloads.Tcp_crr.t);
  let ids = Trace.completed_ids tr in
  check_bool "enough traces completed" true (List.length ids > 10);
  List.iter
    (fun id ->
      match Trace.attribute tr ~id with
      | None -> Alcotest.fail "completed trace must attribute"
      | Some a ->
        check_bool "stage+wire spans tile the end-to-end interval" true
          (Float.abs a.Trace.residual <= tol);
        check_bool "no remote time without an offload" true (a.Trace.remote_s = 0.0);
        check_bool "local time positive" true (a.Trace.local_s > 0.0))
    ids

let test_offloaded_conservation () =
  let t = Testbed.create ~seed:8 () in
  ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
  let tr = t.Testbed.trace in
  Trace.set_enabled tr true;
  ignore (Testbed.run_crr t ~rate:200.0 ~duration:0.5 () : Nezha_workloads.Tcp_crr.t);
  let ids = Trace.completed_ids tr in
  check_bool "enough traces completed" true (List.length ids > 10);
  let remote = ref 0 in
  List.iter
    (fun id ->
      match Trace.attribute tr ~id with
      | None -> Alcotest.fail "completed trace must attribute"
      | Some a ->
        check_bool "offloaded trace conserved" true (Float.abs a.Trace.residual <= tol);
        if a.Trace.remote_s > 0.0 then incr remote)
    ids;
  (* The probe flow detours through an FE in both directions, so the
     remote component must show up on most traces. *)
  check_bool "remote-hop time observed" true (!remote * 2 > List.length ids)

let test_retx_conservation_under_loss () =
  let t = Testbed.create ~seed:9 () in
  ignore (Testbed.offload t ~num_fes:4 () : Controller.offload);
  Faults.set_default t.Testbed.faults (Faults.impair ~loss:0.01 ());
  let tr = t.Testbed.trace in
  Trace.set_enabled tr true;
  ignore (Testbed.run_crr t ~rate:400.0 ~duration:2.0 () : Nezha_workloads.Tcp_crr.t);
  let ids = Trace.completed_ids tr in
  check_bool "enough traces completed" true (List.length ids > 100);
  let retx_ids =
    List.filter
      (fun id ->
        List.exists (fun s -> s.Trace.name = "be_retx") (Trace.spans_of tr ~id))
      ids
  in
  check_bool "at least one retransmitted packet completed" true (retx_ids <> []);
  (* A data-leg loss is recovered by the retransmission and the timeout
     gap is accounted as a retx_wait stage, so the trace still tiles its
     end-to-end interval.  (An ack-leg loss produces a spurious retx
     whose trace honestly does not conserve — those must not be the
     whole population.) *)
  let conserved_retx =
    List.filter
      (fun id ->
        match Trace.conservation_error tr ~id with Some e -> e <= tol | None -> false)
      retx_ids
  in
  check_bool "a retransmitted trace still conserves" true (conserved_retx <> []);
  List.iter
    (fun id ->
      check_bool "retx trace carries the wait stage" true
        (List.exists (fun s -> s.Trace.name = "retx_wait") (Trace.spans_of tr ~id)))
    conserved_retx

(* ------------------------------------------------------------------ *)
(* Chrome export *)

let obj_field j name =
  match j with Json.Obj kv -> List.assoc_opt name kv | _ -> None

let test_chrome_export_roundtrip () =
  let t = Testbed.create ~seed:10 () in
  ignore (Testbed.offload t ~num_fes:2 () : Controller.offload);
  let tr = t.Testbed.trace in
  Trace.set_enabled tr true;
  ignore (Testbed.run_crr t ~rate:100.0 ~duration:0.2 () : Nezha_workloads.Tcp_crr.t);
  let doc = Trace.to_chrome_json tr in
  (* Round-trip through the in-tree parser, unchanged. *)
  let text = Json.to_string_pretty doc in
  (match Json.of_string text with
  | Ok reread -> check_bool "round-trips unchanged" true (Json.equal reread doc)
  | Error e -> Alcotest.fail ("export does not parse: " ^ e));
  let events =
    match obj_field doc "traceEvents" with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  check_bool "has events" true (events <> []);
  let has_name n =
    List.exists
      (fun e -> match obj_field e "name" with Some (Json.String s) -> s = n | _ -> false)
      events
  in
  check_bool "synthetic e2e events present" true (has_name "e2e");
  check_bool "wire spans present" true (has_name "wire");
  check_bool "vm kernel spans present" true (has_name "vm_kernel");
  List.iter
    (fun e ->
      check_bool "every event has ph/ts/pid/tid" true
        (obj_field e "ph" <> None && obj_field e "ts" <> None && obj_field e "pid" <> None
        && obj_field e "tid" <> None))
    events

(* ------------------------------------------------------------------ *)
(* Recorder semantics *)

let test_sampling_and_ring () =
  let tr = Trace.create ~capacity:8 () in
  Trace.set_sample_every tr 2;
  Trace.set_enabled tr true;
  let ids = List.init 6 (fun _ -> Trace.next_id tr) in
  check_int "1-in-2 head sampling" 3 (List.length (List.filter (fun i -> i <> 0) ids));
  let id = List.find (fun i -> i <> 0) ids in
  Trace.begin_trace tr ~id ~now:0.0;
  for i = 0 to 11 do
    Trace.add_span tr ~id ~name:"s" ~component:"c" ~t0:(float_of_int i)
      ~t1:(float_of_int i +. 0.5) ()
  done;
  check_int "ring holds at most capacity" 8 (Trace.span_count tr);
  check_int "overflow counted" 4 (Trace.dropped_spans tr);
  check_int "spans_of sees the survivors" 8 (List.length (Trace.spans_of tr ~id));
  Trace.clear tr;
  check_int "clear empties the ring" 0 (Trace.span_count tr);
  check_bool "clear forgets traces" true (Trace.trace_ids tr = [])

let test_disabled_recorder () =
  let tr = Trace.create () in
  check_bool "created disabled" true (not (Trace.enabled tr));
  check_int "no ids when disabled" 0 (Trace.next_id tr);
  Trace.begin_trace tr ~id:5 ~now:0.0;
  Trace.add_span tr ~id:5 ~name:"s" ~component:"c" ~t0:0.0 ~t1:1.0 ();
  Trace.end_trace tr ~id:5 ~now:1.0;
  check_int "no spans recorded" 0 (Trace.span_count tr);
  check_bool "no traces recorded" true (Trace.trace_ids tr = []);
  Trace.set_enabled tr true;
  check_bool "ids once enabled" true (Trace.next_id tr <> 0)

let test_attribution_arithmetic () =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  let id = Trace.next_id tr in
  Trace.begin_trace tr ~id ~now:1.0;
  Trace.add_span tr ~id ~name:"local" ~component:"c" ~t0:1.0 ~t1:1.6 ();
  Trace.add_span tr ~id ~name:"hop" ~component:"c" ~kind:Trace.Wire ~site:Trace.Remote
    ~t0:1.6 ~t1:2.0 ();
  (* Details and marks annotate; they must not enter the sum. *)
  Trace.add_span tr ~id ~name:"detail" ~component:"c" ~kind:Trace.Detail ~t0:1.1 ~t1:1.4 ();
  Trace.mark tr ~id ~name:"m" ~component:"c" ~now:1.5 ();
  Trace.end_trace tr ~id ~now:2.0;
  (* First end wins. *)
  Trace.end_trace tr ~id ~now:9.0;
  (match Trace.attribute tr ~id with
  | None -> Alcotest.fail "must attribute"
  | Some a ->
    check_bool "e2e" true (Float.abs (a.Trace.e2e -. 1.0) <= tol);
    check_bool "local" true (Float.abs (a.Trace.local_s -. 0.6) <= tol);
    check_bool "remote" true (Float.abs (a.Trace.remote_s -. 0.4) <= tol);
    check_bool "residual ~0" true (Float.abs a.Trace.residual <= tol));
  check_bool "conservation error ~0" true
    (match Trace.conservation_error tr ~id with Some e -> e <= tol | None -> false)

(* ------------------------------------------------------------------ *)
(* fig12 --attribute: rank-based splits must sum to the percentile. *)

let test_fig12_attribute_split () =
  (* A saturating load: the controller's 70% BE-utilization threshold
     must trip during warmup so the with-Nezha probe actually takes the
     offloaded path. *)
  let rows = Experiments.fig12_attribute ~loads:[ 1.0 ] () in
  check_int "one row" 1 (List.length rows);
  let r = List.hd rows in
  let close a b = Float.abs (a -. b) <= 1e-3 (* µs *) in
  let check_sums name (s : Experiments.latency_split) =
    check_bool (name ^ ": traces behind the split") true (s.Experiments.traces > 0);
    check_bool (name ^ ": P50 local+remote = e2e") true
      (close (s.Experiments.p50_local_us +. s.Experiments.p50_remote_us) s.Experiments.p50_us);
    check_bool (name ^ ": P99 local+remote = e2e") true
      (close (s.Experiments.p99_local_us +. s.Experiments.p99_remote_us) s.Experiments.p99_us)
  in
  check_sums "without" r.Experiments.without_nezha;
  check_sums "with" r.Experiments.with_nezha;
  check_bool "no remote time without Nezha" true
    (r.Experiments.without_nezha.Experiments.p50_remote_us = 0.0
    && r.Experiments.without_nezha.Experiments.p99_remote_us = 0.0);
  check_bool "offloaded path pays a remote component" true
    (r.Experiments.with_nezha.Experiments.p50_remote_us > 0.0)

(* ------------------------------------------------------------------ *)
(* Control-plane RPC policy *)

let test_rpc_policy () =
  check_bool "constants" true
    (Controller.rpc_latency = 0.18 && Controller.rpc_timeout = 0.5
    && Controller.rpc_max_retries = 4 && Controller.rpc_backoff = 2.0);
  check_bool "attempt 0 waits one timeout" true
    (Float.abs (Controller.rpc_retry_delay ~attempt:0 -. 0.5) <= 1e-12);
  check_bool "exponential growth" true
    (Float.abs (Controller.rpc_retry_delay ~attempt:2 -. 2.0) <= 1e-12);
  check_bool "capped" true
    (Controller.rpc_retry_delay ~attempt:10 = Controller.rpc_backoff_cap);
  Alcotest.check_raises "negative attempt"
    (Invalid_argument "Controller.rpc_retry_delay: attempt must be >= 0") (fun () ->
      ignore (Controller.rpc_retry_delay ~attempt:(-1) : float))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "conservation",
        [
          Alcotest.test_case "local-only flow" `Quick test_local_conservation;
          Alcotest.test_case "offloaded flow" `Quick test_offloaded_conservation;
          Alcotest.test_case "retransmission under 1% loss" `Quick
            test_retx_conservation_under_loss;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome json round-trip" `Quick test_chrome_export_roundtrip ] );
      ( "recorder",
        [
          Alcotest.test_case "sampling and ring capacity" `Quick test_sampling_and_ring;
          Alcotest.test_case "disabled recorder" `Quick test_disabled_recorder;
          Alcotest.test_case "attribution arithmetic" `Quick test_attribution_arithmetic;
        ] );
      ( "fig12 attribution",
        [ Alcotest.test_case "rank-based split sums" `Quick test_fig12_attribute_split ] );
      ( "rpc policy", [ Alcotest.test_case "record and validation" `Quick test_rpc_policy ] );
    ]
