(* Tests for the discrete-event engine: rng, stats, sim, timer wheel. *)

open Nezha_engine

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* Drawing from [b] must not change [a]'s stream relative to a replay. *)
  let a' = Rng.create 7 in
  let _ = Rng.split a' in
  for _ = 1 to 10 do
    ignore (Rng.bits64 b : int64)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "a unchanged by b" (Rng.bits64 a') (Rng.bits64 a)
  done

let test_rng_int_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    check_bool "in closed range" true (v >= 5 && v <= 9)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0 : int))

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_bool "bucket near 10%" true (frac > 0.09 && frac < 0.11))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.create 5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let m = !sum /. float_of_int n in
  check_bool "mean near 2.0" true (m > 1.9 && m < 2.1)

let test_rng_zipf_rank1_dominates () =
  let r = Rng.create 3 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf r ~n:100 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(1) > counts.(2));
  check_bool "rank 2 beats rank 50" true (counts.(2) > counts.(50))

let test_rng_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mean:10.0 ~stddev:3.0) in
  check_bool "mean" true (Float.abs (Stats.mean samples -. 10.0) < 0.1);
  check_bool "stddev" true (Float.abs (Stats.stddev samples -. 3.0) < 0.1)

let test_rng_pick_shuffle () =
  let r = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  let v = Rng.pick r a in
  check_bool "picked member" true (Array.exists (( = ) v) a)

let prop_chance_extremes =
  QCheck.Test.make ~name:"chance 0 and 1 are certain" ~count:100 QCheck.int
    (fun seed ->
      let r = Rng.create seed in
      Rng.chance r 1.0 && not (Rng.chance r 0.0))

(* Known answers: the streams every seeded experiment, digest and golden
   trajectory derive from.  Any change to how the state is stored or
   stepped must reproduce them exactly. *)
let check_i64s name expected r =
  List.iteri
    (fun i e -> Alcotest.(check int64) (Printf.sprintf "%s #%d" name i) e (Rng.bits64 r))
    expected

let check_float_bits name expected draw =
  List.iteri
    (fun i e ->
      Alcotest.(check int64) (Printf.sprintf "%s #%d" name i) e (Int64.bits_of_float (draw ())))
    expected

let test_rng_known_bits64 () =
  check_i64s "seed 0" [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ]
    (Rng.create 0);
  check_i64s "seed 1" [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L ]
    (Rng.create 1);
  check_i64s "seed 42" [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L ]
    (Rng.create 42);
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  check_i64s "split child"
    [ -8329645779151318480L; 6560957319516933143L; 3429778984135255602L ] child;
  check_i64s "split parent" [ 5573481420429128725L ] parent

let test_rng_known_draws () =
  let r = Rng.create 5 in
  Alcotest.(check (list int)) "int 1000" [ 107; 395; 474; 946 ]
    (List.init 4 (fun _ -> Rng.int r 1000));
  (* A bound just over max_int / 2 rejects about half the raw draws. *)
  let big = (max_int / 2) + 2 in
  Alcotest.(check (list int)) "int with rejections"
    [ 1239123011929875728; 1146306079314062286; 1291451808056466756; 2067879216494169930 ]
    (List.init 4 (fun _ -> Rng.int r big));
  let r = Rng.create 9 in
  check_float_bits "float"
    [ 0x400079ac611a8cbcL; 0x4013bab7af91d9d2L; 0x4022f853b4f6ade9L ]
    (fun () -> Rng.float r 10.0);
  check_float_bits "exponential"
    [ 0x3ffb16b0a1f9b4e2L; 0x40006aeff89094b1L; 0x40010d2feff2bcb1L ]
    (fun () -> Rng.exponential r ~mean:2.0);
  check_float_bits "gaussian"
    [ 0x4021f3686190d420L; 0x40218e2152e4b8edL; 0x401d4c263392f0d3L ]
    (fun () -> Rng.gaussian r ~mean:10.0 ~stddev:3.0);
  check_i64s "stream after the draws" [ 5606126380262314600L ] r

(* Minor words allocated by [n] calls of [f]; [f] itself must not
   allocate beyond the code under test. *)
let minor_words_over n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

let check_words_at_most name budget words =
  check_bool (Printf.sprintf "%s: %.0f minor words <= %.0f" name words budget) true
    (words <= budget)

let test_rng_int_draws_allocate_nothing () =
  let r = Rng.create 3 and n = 100_000 in
  let big = (max_int / 2) + 2 in
  check_words_at_most "int" 0.0 (minor_words_over n (fun () -> ignore (Rng.int r 1000 : int)));
  check_words_at_most "int with rejections" 0.0
    (minor_words_over n (fun () -> ignore (Rng.int r big : int)));
  check_words_at_most "int_in" 0.0
    (minor_words_over n (fun () -> ignore (Rng.int_in r 5 9 : int)));
  check_words_at_most "bool" 0.0 (minor_words_over n (fun () -> ignore (Rng.bool r : bool)));
  check_words_at_most "chance" 0.0
    (minor_words_over n (fun () -> ignore (Rng.chance r 0.3 : bool)))

let test_rng_float_draws_allocate_only_the_result () =
  (* A boxed float result is 2 words; nothing else may allocate. *)
  let r = Rng.create 3 and n = 100_000 in
  let budget = 2.0 *. float_of_int n in
  check_words_at_most "float" budget
    (minor_words_over n (fun () -> ignore (Rng.float r 10.0 : float)));
  check_words_at_most "exponential" budget
    (minor_words_over n (fun () -> ignore (Rng.exponential r ~mean:2.0 : float)));
  check_words_at_most "pareto" budget
    (minor_words_over n (fun () -> ignore (Rng.pareto r ~shape:1.5 ~scale:1.0 : float)));
  check_words_at_most "gaussian" budget
    (minor_words_over n (fun () -> ignore (Rng.gaussian r ~mean:10.0 ~stddev:3.0 : float)));
  check_words_at_most "lognormal" budget
    (minor_words_over n (fun () -> ignore (Rng.lognormal r ~mu:0.0 ~sigma:0.5 : float)))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentile_simple () =
  let xs = Array.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p25" 25.0 (Stats.percentile xs 25.0)

let test_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  check_float "p50 midpoint" 15.0 (Stats.percentile xs 50.0)

let test_percentiles_batch () =
  let xs = Array.init 11 (fun i -> float_of_int (10 - i)) in
  let out = Stats.percentiles xs [ 0.0; 100.0 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "batch" [ (0.0, 0.0); (100.0, 10.0) ] out

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty samples")
    (fun () -> ignore (Stats.percentile [||] 50.0 : float));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 150.0 : float))

(* Nearest rank names one sample: ceil(p/100 * n) - 1, clamped. *)
let test_nearest_rank () =
  check_int "n = 1, p = 0" 0 (Stats.nearest_rank 1 0.0);
  check_int "n = 1, p = 100" 0 (Stats.nearest_rank 1 100.0);
  check_int "p = 0 names the minimum" 0 (Stats.nearest_rank 10 0.0);
  check_int "p = 100 names the maximum" 9 (Stats.nearest_rank 10 100.0);
  (* p/100 * n an exact integer k: the k-th sample, not the next. *)
  check_int "exact multiple" 1 (Stats.nearest_rank 4 50.0);
  check_int "just past it" 2 (Stats.nearest_rank 4 50.001);
  check_int "p99 of 100" 98 (Stats.nearest_rank 100 99.0);
  check_int "p99 of 1000" 989 (Stats.nearest_rank 1000 99.0);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.nearest_rank: no samples")
    (fun () -> ignore (Stats.nearest_rank 0 50.0 : int));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.nearest_rank 5 (-1.0) : int))

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 10;
  check_int "value" 11 (Stats.Counter.value c);
  Stats.Counter.reset c;
  check_int "reset" 0 (Stats.Counter.value c)

let test_histogram_accuracy () =
  let h = Stats.Histogram.create () in
  for i = 1 to 10_000 do
    Stats.Histogram.record h (float_of_int i)
  done;
  check_int "count" 10_000 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 50.0 in
  check_bool "p50 within 2%" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.02);
  let p99 = Stats.Histogram.percentile h 99.0 in
  check_bool "p99 within 2%" true (Float.abs (p99 -. 9900.0) /. 9900.0 < 0.02);
  check_float "max exact" 10_000.0 (Stats.Histogram.max_value h);
  check_float "min exact" 1.0 (Stats.Histogram.min_value h)

let test_histogram_empty_and_merge () =
  let a = Stats.Histogram.create () in
  check_float "empty percentile" 0.0 (Stats.Histogram.percentile a 99.0);
  let b = Stats.Histogram.create () in
  Stats.Histogram.record_n a 5.0 10;
  Stats.Histogram.record_n b 50.0 10;
  Stats.Histogram.merge_into ~dst:a ~src:b;
  check_int "merged count" 20 (Stats.Histogram.count a);
  check_float "merged max" 50.0 (Stats.Histogram.max_value a);
  let p25 = Stats.Histogram.percentile a 25.0 in
  check_bool "low half is 5" true (Float.abs (p25 -. 5.0) /. 5.0 < 0.02)

let test_histogram_negative_clamped () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h (-3.0);
  check_float "clamped to 0" 0.0 (Stats.Histogram.max_value h)

let prop_histogram_percentile_close =
  QCheck.Test.make ~name:"histogram percentile tracks exact percentile" ~count:50
    QCheck.(make Gen.(list_size (int_range 100 1000) (float_range 0.1 1e6)))
    (fun xs ->
      let arr = Array.of_list xs in
      let h = Stats.Histogram.create () in
      Array.iter (Stats.Histogram.record h) arr;
      List.for_all
        (fun p ->
          let exact = Stats.percentile arr p in
          let est = Stats.Histogram.percentile h p in
          (* With 2 significant digits the bucket error is ~1%; allow 3%
             plus interpolation slack between neighbouring samples. *)
          exact = 0.0 || Float.abs (est -. exact) /. exact < 0.05)
        [ 50.0; 90.0; 99.0 ])

let test_series () =
  let s = Stats.Series.create ~name:"cpu" in
  Stats.Series.add s ~time:0.0 1.0;
  Stats.Series.add s ~time:1.0 2.0;
  Stats.Series.add s ~time:2.0 3.0;
  check_int "len" 3 (Stats.Series.length s);
  Alcotest.(check string) "name" "cpu" (Stats.Series.name s);
  (match Stats.Series.last s with
  | Some (t, v) ->
    check_float "last t" 2.0 t;
    check_float "last v" 3.0 v
  | None -> Alcotest.fail "expected last");
  let pts = Stats.Series.points s in
  check_int "points" 3 (Array.length pts)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag _ = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:3.0 (note "c") : Sim.handle);
  ignore (Sim.schedule sim ~delay:1.0 (note "a") : Sim.handle);
  ignore (Sim.schedule sim ~delay:2.0 (note "b") : Sim.handle);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 3.0 (Sim.now sim)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:1.0 (fun _ -> log := i :: !log) : Sim.handle)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1.0 (fun _ -> fired := true) in
  Sim.cancel sim h;
  check_bool "cancelled flag" true (Sim.cancelled sim h);
  Sim.run sim;
  check_bool "did not fire" false !fired

let test_sim_stale_handle () =
  let sim = Sim.create ~capacity:1 () in
  let first = ref 0 and second = ref 0 in
  let h1 = Sim.schedule sim ~delay:1.0 (fun _ -> incr first) in
  check_bool "queued event is live" false (Sim.cancelled sim h1);
  Sim.run sim;
  check_bool "cancelled after it fired" true (Sim.cancelled sim h1);
  (* The one pool slot now holds a later event: the old handle must not
     reach it. *)
  let h2 = Sim.schedule sim ~delay:1.0 (fun _ -> incr second) in
  check_int "slot reused" 1 (fst (Sim.pool_stats sim));
  Sim.cancel sim h1;
  check_bool "stale cancel leaves the new event live" false (Sim.cancelled sim h2);
  Sim.run sim;
  check_int "first fired once" 1 !first;
  check_int "second fired" 1 !second;
  Sim.cancel sim h2;
  check_bool "cancelling a fired event is a no-op" true (Sim.cancelled sim h2)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick s =
    incr count;
    ignore (Sim.schedule s ~delay:1.0 tick : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:1.0 tick : Sim.handle);
  Sim.run ~until:10.5 sim;
  check_int "ticks up to 10.5" 10 !count;
  check_float "clock parked at until" 10.5 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun s ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule s ~delay:0.0 (fun _ -> log := "inner" :: !log)
             : Sim.handle))
      : Sim.handle);
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_sim_every_stops () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~period:1.0 (fun _ ->
      incr count;
      !count < 5);
  Sim.run sim;
  check_int "stopped after 5" 5 !count

let test_sim_max_events () =
  let sim = Sim.create () in
  let rec tick s = ignore (Sim.schedule s ~delay:1.0 tick : Sim.handle) in
  ignore (Sim.schedule sim ~delay:0.0 tick : Sim.handle);
  Sim.run ~max_events:100 sim;
  check_int "bounded" 100 (Sim.events_executed sim)

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let t = ref (-1.0) in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun s ->
         ignore (Sim.schedule s ~delay:(-3.0) (fun s' -> t := Sim.now s') : Sim.handle))
      : Sim.handle);
  Sim.run sim;
  check_float "fires now, not in the past" 5.0 !t

(* ------------------------------------------------------------------ *)
(* Timer wheel *)

let test_wheel_fires_in_window () =
  let w = Timer_wheel.create ~tick:0.1 ~slots:64 in
  let fired = ref [] in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:1.0 1 : Timer_wheel.timer);
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:2.0 2 : Timer_wheel.timer);
  check_int "pending" 2 (Timer_wheel.pending w);
  let n = Timer_wheel.advance w ~now:1.5 (fun v -> fired := v :: !fired) in
  check_int "one fired" 1 n;
  Alcotest.(check (list int)) "the first fired" [ 1 ] !fired;
  let n2 = Timer_wheel.advance w ~now:2.5 (fun v -> fired := v :: !fired) in
  check_int "second fired" 1 n2;
  check_int "none pending" 0 (Timer_wheel.pending w)

let test_wheel_cancel () =
  let w = Timer_wheel.create ~tick:0.1 ~slots:16 in
  let t = Timer_wheel.add w ~now:0.0 ~deadline:0.5 42 in
  check_bool "armed" true (Timer_wheel.armed w t);
  Timer_wheel.cancel w t;
  check_bool "cancelled" false (Timer_wheel.armed w t);
  check_int "pending drops immediately" 0 (Timer_wheel.pending w);
  let n = Timer_wheel.advance w ~now:1.0 (fun _ -> Alcotest.fail "must not fire") in
  check_int "no fires" 0 n

let test_wheel_multi_revolution () =
  (* Deadline far beyond one revolution must survive sweeps until due. *)
  let w = Timer_wheel.create ~tick:0.1 ~slots:4 in
  let fired = ref 0 in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:3.0 0 : Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:1.0 (fun _ -> incr fired) : int);
  check_int "not yet" 0 !fired;
  ignore (Timer_wheel.advance w ~now:2.9 (fun _ -> incr fired) : int);
  check_int "still not" 0 !fired;
  ignore (Timer_wheel.advance w ~now:3.2 (fun _ -> incr fired) : int);
  check_int "fired on time" 1 !fired

let test_wheel_min_one_tick () =
  let w = Timer_wheel.create ~tick:1.0 ~slots:8 in
  let fired = ref 0 in
  (* Deadline in the past is clamped one tick ahead, never dropped. *)
  ignore (Timer_wheel.add w ~now:5.0 ~deadline:1.0 0 : Timer_wheel.timer);
  ignore (Timer_wheel.advance w ~now:7.0 (fun _ -> incr fired) : int);
  check_int "fired after clamp" 1 !fired

let test_wheel_rearm_swept_slot () =
  (* Each callback re-arms 3.5 ticks ahead, which on a 4-slot wheel is
     the slot being swept: the new timer must survive the sweep. *)
  let w = Timer_wheel.create ~tick:1.0 ~slots:4 in
  let now = ref 0.0 and fired = ref [] in
  let arm n = ignore (Timer_wheel.add w ~now:!now ~deadline:(!now +. 3.5) n : Timer_wheel.timer) in
  ignore (Timer_wheel.add w ~now:0.0 ~deadline:0.5 0 : Timer_wheel.timer);
  for i = 1 to 20 do
    now := float_of_int i;
    ignore
      (Timer_wheel.advance w ~now:!now (fun n ->
           fired := n :: !fired;
           if n < 3 then arm (n + 1))
        : int)
  done;
  Alcotest.(check (list int)) "every re-arm fired" [ 0; 1; 2; 3 ] (List.rev !fired);
  check_int "nothing pending" 0 (Timer_wheel.pending w)

let test_wheel_rearm_in_place () =
  (* The same loop as above, but each firing re-arms its own node: the
     node must survive the sweep of its slot and fire at the same
     instants, and a re-arm must hand back that node. *)
  let w = Timer_wheel.create ~tick:1.0 ~slots:4 in
  let now = ref 0.0 and fired = ref [] and count = ref 0 in
  let node = Timer_wheel.add w ~now:0.0 ~deadline:0.5 0 in
  for i = 1 to 20 do
    now := float_of_int i;
    ignore
      (Timer_wheel.advance w ~now:!now (fun _ ->
           fired := (!count, !now) :: !fired;
           incr count;
           if !count <= 3 then
             check_bool "re-armed in place" true
               (Timer_wheel.rearm w node ~now:!now ~deadline:(!now +. 3.5) = node))
        : int)
  done;
  Alcotest.(check (list (pair int (float 0.0))))
    "fired at the add-based instants"
    [ (0, 1.0); (1, 5.0); (2, 9.0); (3, 13.0) ]
    (List.rev !fired);
  check_int "nothing pending" 0 (Timer_wheel.pending w);
  check_bool "a fired timer's handle goes stale" false (Timer_wheel.armed w node);
  check_bool "a pending timer is replaced, not moved" true
    (let n = Timer_wheel.add w ~now:20.0 ~deadline:30.0 0 in
     let n' = Timer_wheel.rearm w n ~now:20.0 ~deadline:25.0 in
     n' <> n && (not (Timer_wheel.armed w n)) && Timer_wheel.armed w n'
     && Timer_wheel.pending w = 1)

(* A re-arm of a fired node from its own callback stores unboxed words
   only: no allocation at all. *)
let test_wheel_rearm_allocates_nothing () =
  let w = Timer_wheel.create ~tick:1.0 ~slots:16 in
  let node = Timer_wheel.add w ~now:0.0 ~deadline:0.5 0 in
  let rearms = ref 0 and allocating = ref 0 in
  for i = 1 to 1000 do
    (* Both floats are boxed before the measurement: passing a float to
       a function boxes it in the caller. *)
    let now = float_of_int i in
    let deadline = Sys.opaque_identity (now +. 0.5) in
    ignore
      (Timer_wheel.advance w ~now (fun _ ->
           let w0 = Gc.minor_words () in
           let again = Timer_wheel.rearm w node ~now ~deadline in
           if Gc.minor_words () -. w0 > 0.0 then incr allocating;
           if again = node then incr rearms)
        : int)
  done;
  check_int "re-armed in place every time" 1000 !rearms;
  check_int "re-arms that allocated" 0 !allocating

(* The wheel against a list model of its slots.  Each slot is a list,
   newest first; a sweep fires the due timers front to back, keeps the
   rest in their order, and puts what its callbacks linked into the slot
   in front of them.  Operations go through every handle ever issued,
   so cancels and re-arms hit pending, cancelled and released nodes
   alike: on a released one they must be no-ops.  Callbacks re-arm
   their own node (payloads = 0 mod 4, at most three firings) or add a
   child timer (payloads = 1 mod 4), sometimes into the slot being
   swept. *)
type wm_state = Wm_pending | Wm_cancelled | Wm_fired | Wm_fired_cancelled | Wm_released

type wm = { payload : int; mutable deadline : float; mutable st : wm_state }

type wop = W_add of int | W_cancel of int | W_rearm of int * int | W_advance of float

let wm_tick = 1.0
let wm_slots = 4

let wop_show = function
  | W_add d -> Printf.sprintf "add +%d/4" d
  | W_cancel i -> Printf.sprintf "cancel #%d" i
  | W_rearm (i, d) -> Printf.sprintf "rearm #%d +%d/4" i d
  | W_advance dt -> Printf.sprintf "advance +%g" dt

let prop_wheel_matches_list_model =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 120)
        (frequency
           [
             (5, map (fun d -> W_add d) (int_bound 40));
             (2, map (fun i -> W_cancel i) (int_bound 60));
             (2, map2 (fun i d -> W_rearm (i, d)) (int_bound 60) (int_bound 40));
             (4, map (fun i -> W_advance (float_of_int i *. 0.25)) (int_bound 12));
             (1, return (W_advance 30.0));
           ]))
  in
  Test.make ~name:"timer wheel matches a list model" ~count:300
    (make ~print:(fun ops -> String.concat "; " (List.map wop_show ops)) gen)
    (fun ops ->
      let w = Timer_wheel.create ~tick:wm_tick ~slots:wm_slots in
      (* The model. *)
      let slots = Array.make wm_slots [] and cursor = ref 0 and live = ref 0 in
      let stale = ref false in
      let m_link now d m =
        let d = Float.max now d in
        let k = max (int_of_float (d /. wm_tick)) !cursor in
        m.deadline <- d;
        m.st <- Wm_pending;
        slots.(k mod wm_slots) <- m :: slots.(k mod wm_slots);
        incr live
      in
      let m_cancel m =
        match m.st with
        | Wm_pending ->
          m.st <- Wm_cancelled;
          decr live;
          stale := true
        | Wm_fired -> m.st <- Wm_fired_cancelled
        | Wm_cancelled | Wm_fired_cancelled | Wm_released -> ()
      in
      (* Every handle issued, newest first, with its model node; and by
         payload, the node now carrying it. *)
      let issued = ref [] and real_of = Hashtbl.create 16 and model_of = Hashtbl.create 16 in
      let issue p h m =
        issued := (h, m) :: !issued;
        Hashtbl.replace real_of p h;
        Hashtbl.replace model_of p m
      in
      let next_payload = ref 0 in
      let real_fires = Hashtbl.create 16 and model_fires = Hashtbl.create 16 in
      let bump tbl p =
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl p) in
        Hashtbl.replace tbl p n;
        n
      in
      let pick i = List.nth !issued (i mod List.length !issued) in
      let m_advance now =
        let fired = ref [] in
        while float_of_int (!cursor + 1) *. wm_tick <= now do
          if !live = 0 then begin
            if !stale then begin
              Array.iteri
                (fun s chain ->
                  List.iter (fun m -> m.st <- Wm_released) chain;
                  slots.(s) <- [])
                slots;
              stale := false
            end;
            cursor := max !cursor (int_of_float (now /. wm_tick) - 1)
          end;
          let s = !cursor mod wm_slots in
          let chain = slots.(s) in
          slots.(s) <- [];
          let keep = ref [] in
          List.iter
            (fun m ->
              match m.st with
              | Wm_pending when m.deadline <= now ->
                m.st <- Wm_fired;
                decr live;
                fired := m.payload :: !fired;
                let p = m.payload in
                let n = bump model_fires p in
                if p < 1_000_000 && p mod 4 = 0 && n < 3 then
                  m_link now (now +. (float_of_int (p mod 7) *. 0.25)) m
                else if p < 1_000_000 && p mod 4 = 1 then begin
                  let c = { payload = p + 1_000_000; deadline = 0.0; st = Wm_released } in
                  m_link now (now +. (float_of_int (p mod 5) *. 0.25)) c;
                  Hashtbl.replace model_of c.payload c
                end;
                if m.st = Wm_fired || m.st = Wm_fired_cancelled then m.st <- Wm_released
              | Wm_pending -> keep := m :: !keep
              | Wm_cancelled | Wm_fired | Wm_fired_cancelled | Wm_released ->
                m.st <- Wm_released)
            chain;
          slots.(s) <- slots.(s) @ List.rev !keep;
          incr cursor
        done;
        List.rev !fired
      in
      let r_advance now =
        let fired = ref [] and children = ref [] in
        ignore
          (Timer_wheel.advance w ~now (fun p ->
               fired := p :: !fired;
               let n = bump real_fires p in
               if p < 1_000_000 && p mod 4 = 0 && n < 3 then begin
                 let h = Hashtbl.find real_of p in
                 ignore
                   (Timer_wheel.rearm w h ~now ~deadline:(now +. (float_of_int (p mod 7) *. 0.25))
                     : Timer_wheel.timer)
               end
               else if p < 1_000_000 && p mod 4 = 1 then begin
                 let c = p + 1_000_000 in
                 let h =
                   Timer_wheel.add w ~now ~deadline:(now +. (float_of_int (p mod 5) *. 0.25)) c
                 in
                 Hashtbl.replace real_of c h;
                 children := (c, h) :: !children
               end)
            : int);
        (List.rev !fired, List.rev !children)
      in
      let now = ref 0.0 in
      List.for_all
        (fun op ->
          let same_fires =
            match op with
            | W_add d ->
              let p = !next_payload in
              incr next_payload;
              let deadline = !now +. (float_of_int d *. 0.25) in
              let h = Timer_wheel.add w ~now:!now ~deadline p in
              let m = { payload = p; deadline = 0.0; st = Wm_released } in
              m_link !now deadline m;
              issue p h m;
              true
            | W_cancel i when !issued <> [] ->
              let h, m = pick i in
              Timer_wheel.cancel w h;
              m_cancel m;
              true
            | W_rearm (i, d) when !issued <> [] ->
              let h, m = pick i in
              let deadline = !now +. (float_of_int d *. 0.25) in
              let h' = Timer_wheel.rearm w h ~now:!now ~deadline in
              (* A pending timer is replaced; any other is left as is. *)
              if m.st = Wm_pending then begin
                m_cancel m;
                let m' = { payload = m.payload; deadline = 0.0; st = Wm_released } in
                m_link !now deadline m';
                issue m.payload h' m';
                h' <> h
              end
              else h' = h
            | W_cancel _ | W_rearm _ -> true
            | W_advance dt ->
              now := !now +. dt;
              let real, children = r_advance !now in
              let model = m_advance !now in
              List.iter (fun (c, h) -> issue c h (Hashtbl.find model_of c)) children;
              real = model
          in
          same_fires
          && Timer_wheel.pending w = !live
          && List.for_all (fun (h, m) -> Timer_wheel.armed w h = (m.st = Wm_pending)) !issued)
        ops)

let prop_wheel_fires_everything =
  QCheck.Test.make ~name:"timer wheel fires every non-cancelled timer" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 200) (float_range 0.01 50.0)))
    (fun deadlines ->
      let w = Timer_wheel.create ~tick:0.25 ~slots:32 in
      List.iter
        (fun d -> ignore (Timer_wheel.add w ~now:0.0 ~deadline:d 0 : Timer_wheel.timer))
        deadlines;
      let fired = ref 0 in
      ignore (Timer_wheel.advance w ~now:100.0 (fun _ -> incr fired) : int);
      !fired = List.length deadlines && Timer_wheel.pending w = 0)


let test_sim_pool_reuse () =
  (* A chain of events scheduled one-at-a-time recycles a single pooled
     record: the first firing's record is free again by the time the
     handler schedules the next. *)
  let sim = Sim.create () in
  let rec tick n s = if n < 100 then ignore (Sim.schedule s ~delay:1.0 (tick (n + 1)) : Sim.handle) in
  ignore (Sim.schedule sim ~delay:1.0 (tick 1) : Sim.handle);
  Sim.run sim;
  let reused, fresh = Sim.pool_stats sim in
  check_int "one fresh record" 1 fresh;
  check_int "rest reused" 99 reused

let test_sim_every_pool () =
  (* [every] must not grow the pool: all re-arms go through the one
     recycled record. *)
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~period:1.0 (fun _ ->
      incr count;
      !count < 50);
  Sim.run sim;
  let _, fresh = Sim.pool_stats sim in
  check_int "fired every period" 50 !count;
  check_bool "at most one fresh record" true (fresh <= 1)

let test_sim_timeout_fires_coarse () =
  let sim = Sim.create ~timer_tick:0.1 () in
  let fired_at = ref nan in
  ignore (Sim.timeout sim ~delay:0.42 (fun s -> fired_at := Sim.now s; None) : Sim.timer);
  Sim.run sim;
  check_bool "at or after the deadline" true (!fired_at >= 0.42);
  check_bool "within one tick of it" true (!fired_at <= 0.42 +. 0.1)

let test_sim_timeout_cancel () =
  let sim = Sim.create () in
  let t = Sim.timeout sim ~delay:1.0 (fun _ -> Alcotest.fail "cancelled timer fired") in
  Sim.cancel_timer t;
  check_bool "cancelled" true (Sim.timer_cancelled t);
  Sim.run sim;
  check_int "nothing pending" 0 (Sim.pending sim)

(* The heap oracle: a wheel firing lands within one tick at or after the
   exact time the heap would use. *)
let within_one_tick ~tick ~exact t =
  (not (Float.is_nan t)) && (not (Float.is_nan exact)) && t >= exact && t <= exact +. tick

let prop_timeout_matches_schedule =
  (* Wheel-vs-heap equivalence: the same set of delays scheduled through
     [timeout] fires completely, in deadline order, each firing within
     one wheel tick at-or-after the exact time the heap would use. *)
  QCheck.Test.make ~name:"timeout fires like schedule, within one tick" ~count:100
    QCheck.(
      make
        ~print:Print.(list float)
        Gen.(list_size (int_range 1 100) (float_range 0.01 20.0)))
    (fun delays ->
      let tick = 0.05 in
      let wheel_sim = Sim.create ~timer_tick:tick () in
      let heap_sim = Sim.create () in
      let n = List.length delays in
      let wheel_t = Array.make n nan and heap_t = Array.make n nan in
      List.iteri
        (fun i d ->
          ignore (Sim.timeout wheel_sim ~delay:d (fun s -> wheel_t.(i) <- Sim.now s; None) : Sim.timer);
          ignore (Sim.schedule heap_sim ~delay:d (fun s -> heap_t.(i) <- Sim.now s) : Sim.handle))
        delays;
      Sim.run wheel_sim;
      Sim.run heap_sim;
      let ok = ref true in
      for i = 0 to n - 1 do
        ok := !ok && within_one_tick ~tick ~exact:heap_t.(i) wheel_t.(i)
      done;
      !ok && Sim.pending wheel_sim = 0)

(* Run timer loops, each a list of delays (the first arms it, each later
   one is the next re-arm), either as [timeout] loops or as one-shot
   timers that add their successor from their callback.  Returns the
   [(loop, time)] firing log, oldest first, and what is left pending. *)
let run_timer_loops ~tick ~looping loops =
  let sim = Sim.create ~timer_tick:tick () in
  let log = ref [] in
  List.iteri
    (fun i delays ->
      let rest = ref (List.tl delays) in
      let next () =
        match !rest with
        | [] -> None
        | d :: tl ->
          rest := tl;
          Some d
      in
      let fire s = log := (i, Sim.now s) :: !log in
      if looping then
        ignore
          (Sim.timeout sim ~delay:(List.hd delays) (fun s ->
               fire s;
               next ())
            : Sim.timer)
      else
        let rec arm delay =
          ignore
            (Sim.timeout sim ~delay (fun s ->
                 fire s;
                 Option.iter arm (next ());
                 None)
              : Sim.timer)
        in
        arm (List.hd delays))
    loops;
  Sim.run sim;
  (List.rev !log, Sim.pending sim)

let prop_timeout_loop_matches_readd =
  QCheck.Test.make ~name:"a timeout loop fires like one-shot timers re-added from the callback"
    ~count:100
    QCheck.(
      make
        ~print:Print.(list (list float))
        Gen.(
          list_size (int_range 1 20) (list_size (int_range 1 8) (float_range 0.01 5.0))))
    (fun loops ->
      let tick = 0.05 in
      let log, pending = run_timer_loops ~tick ~looping:true loops in
      let log', pending' = run_timer_loops ~tick ~looping:false loops in
      (* Each firing also obeys the heap oracle, measured from the one
         before it. *)
      let follows_delays i delays =
        let times = List.filter_map (fun (j, t) -> if j = i then Some t else None) log in
        List.length times = List.length delays
        && fst
             (List.fold_left2
                (fun (ok, prev) d t -> (ok && within_one_tick ~tick ~exact:(prev +. d) t, t))
                (true, 0.0) delays times)
      in
      log = log' && pending = 0 && pending' = 0
      && List.for_all Fun.id (List.mapi follows_delays loops))

let test_sim_timeout_loop_none_ends () =
  let sim = Sim.create ~timer_tick:0.1 () in
  let times = ref [] in
  ignore
    (Sim.timeout sim ~delay:1.0 (fun s ->
         times := Sim.now s :: !times;
         if List.length !times < 5 then Some 1.0 else None)
      : Sim.timer);
  Sim.run sim;
  check_int "fired five times, then stopped" 5 (List.length !times);
  check_bool "a second apart" true
    (List.for_all2
       (fun a b -> Float.abs (a -. b -. 1.0) < 0.1 +. 1e-9)
       (List.filteri (fun i _ -> i < 4) !times)
       (List.tl !times));
  check_int "nothing pending" 0 (Sim.pending sim)

let test_sim_timeout_cancel_inside () =
  (* While its callback runs, the loop's node has fired: the cancel must
     still win over the delay the callback returns. *)
  let sim = Sim.create () in
  let fired = ref 0 and self = ref None in
  let timer =
    Sim.timeout sim ~delay:1.0 (fun _ ->
        incr fired;
        Option.iter Sim.cancel_timer !self;
        Some 1.0)
  in
  self := Some timer;
  Sim.run sim ~until:10.0;
  check_int "fired once" 1 !fired;
  check_bool "cancelled" true (Sim.timer_cancelled timer);
  check_int "nothing pending" 0 (Sim.pending sim)

(* A loop that ended or was cancelled leaves nothing of itself in the
   simulation: its body, and what the body captures, can be collected,
   while a running loop's body stays. *)
let test_sim_ended_loop_unreachable () =
  let sim = Sim.create () in
  let weak = Weak.create 3 in
  let loop i ~stop =
    let cell = Bytes.make 16 'x' in
    Weak.set weak i (Some cell);
    Sim.timeout sim ~delay:1.0 (fun _ ->
        ignore (Sys.opaque_identity cell);
        if stop then None else Some 1.0)
  in
  let _ended = loop 0 ~stop:true in
  let cancelled = loop 1 ~stop:false in
  let _running = loop 2 ~stop:false in
  Sim.run sim ~until:2.5;
  Sim.cancel_timer cancelled;
  Sim.run sim ~until:5.0;
  Gc.full_major ();
  check_bool "an ended loop's body is gone" false (Weak.check weak 0);
  check_bool "a cancelled loop's body is gone" false (Weak.check weak 1);
  check_bool "a running loop's body stays" true (Weak.check weak 2);
  check_int "one loop left" 1 (Sim.pending sim)

let test_sim_timeout_loop_promotes_little () =
  (* A loop re-arms its one node, whose link, state and deadline are
     unboxed words in the wheel's pool: with a minor collection every
     2 ms of simulated time, whatever a firing allocates and keeps gets
     promoted, and a firing keeps nothing. *)
  let sim = Sim.create () in
  let firings = ref 0 in
  for i = 0 to 999 do
    ignore
      (Sim.timeout sim ~delay:(0.001 *. float_of_int (i mod 10)) (fun _ ->
           incr firings;
           Some 0.01)
        : Sim.timer)
  done;
  Sim.every sim ~period:0.002 (fun _ ->
      Gc.minor ();
      true);
  (* Warm up: every node is promoted by now. *)
  Sim.run sim ~until:0.1;
  let f0 = !firings and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  Sim.run sim ~until:1.1;
  let per_firing =
    ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int (!firings - f0)
  in
  (* Each loop fires every 10 ms, or 11 when float rounding puts its
     deadline just past a slot boundary. *)
  check_bool "ran every loop" true (!firings - f0 >= 90_000);
  check_bool
    (Printf.sprintf "%.3f promoted words per firing <= 0.01" per_firing)
    true (per_firing <= 0.01)

(* ------------------------------------------------------------------ *)
(* Completion rings: the SmartNIC CPU and the VM kernel are FIFO
   servers that queue their jobs in a ring popped by one completion
   closure, so their completion order must be submission order. *)

module Smartnic = Nezha_vswitch.Smartnic
module Params = Nezha_vswitch.Params
module Vm = Nezha_fabric.Vm
module Packet = Nezha_net.Packet

let nic_params = { Params.default with Params.cpu_hz = 1e6 }

let test_nic_fifo_order () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:nic_params ~name:"nic" in
  let log = ref [] in
  (* Zero-cycle jobs complete at once, equal-time ones at one instant;
     a zero-cycle job behind a busy one waits for it.  More jobs than
     the ring's first size make it grow with jobs queued. *)
  let cycles = [ 0; 0; 1000; 0; 0; 1000; 1000; 0; 0; 0; 500; 0 ] in
  List.iteri
    (fun i c ->
      check_bool "admitted" true (Smartnic.submit nic ~cycles:c (fun s -> log := (i, Sim.now s) :: !log)))
    cycles;
  check_int "queued" (List.length cycles) (Smartnic.queue_depth nic);
  Sim.run sim;
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "submission order" (List.init (List.length cycles) Fun.id) order;
  let times = List.rev_map snd !log in
  check_bool "completion times never decrease" true (List.sort compare times = times);
  check_float "last completion" 0.0035 (Sim.now sim);
  check_int "completed" (List.length cycles) (Smartnic.jobs_completed nic);
  check_int "ring drained" 0 (Smartnic.queue_depth nic);
  (* A drained ring keeps serving, wrapped past its end. *)
  log := [];
  for i = 0 to 19 do
    ignore (Smartnic.submit nic ~cycles:10 (fun s -> log := (i, Sim.now s) :: !log) : bool)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "second round in order" (List.init 20 Fun.id) (List.rev_map fst !log)

let test_nic_crash_mid_queue () =
  let sim = Sim.create () in
  let nic = Smartnic.create ~sim ~params:nic_params ~name:"nic" in
  let ran = ref [] in
  for i = 0 to 4 do
    ignore (Smartnic.submit nic ~cycles:1000 (fun _ -> ran := i :: !ran) : bool)
  done;
  (* Jobs finish at 1, 2, 3, 4 and 5 ms; crash between the second and
     the third. *)
  Sim.run sim ~until:0.0025;
  Smartnic.crash nic;
  check_bool "crashed card drops new work" false (Smartnic.submit nic ~cycles:1 (fun _ -> ran := 99 :: !ran));
  Sim.run sim;
  Alcotest.(check (list int)) "only the jobs done before the crash ran" [ 0; 1 ] (List.rev !ran);
  check_int "queued jobs still count as completed" 5 (Smartnic.jobs_completed nic);
  check_int "queue drained" 0 (Smartnic.queue_depth nic);
  check_int "the refused job is a drop" 1 (Smartnic.jobs_dropped nic)

let test_vm_fifo_delivery () =
  let sim = Sim.create () in
  let vm = Vm.create ~sim ~name:"vm" ~vcpus:2 () in
  let got = ref [] in
  Vm.set_app vm (fun _ pkt -> got := pkt.Packet.flow.Nezha_net.Five_tuple.src_port :: !got);
  let ip = Nezha_net.Ipv4.of_string_exn in
  let pkt i =
    Packet.create ~vpc:(Nezha_net.Vpc.make 1)
      ~flow:
        (Nezha_net.Five_tuple.make ~src:(ip "1.0.0.1") ~dst:(ip "1.0.0.2") ~src_port:i ~dst_port:80
           ~proto:Nezha_net.Five_tuple.Tcp)
      ~direction:Packet.Rx
      ~flags:(if i mod 3 = 0 then Packet.syn else Packet.ack)
      ()
  in
  for i = 0 to 19 do
    Vm.deliver vm (pkt i)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" (List.init 20 Fun.id) (List.rev !got);
  check_int "delivered" 20 (Vm.packets_delivered vm);
  check_int "accepted counts the SYNs" 7 (Vm.connections_accepted vm);
  check_int "no drops" 0 (Vm.packets_dropped vm)

(* ------------------------------------------------------------------ *)
(* Sim against a reference model

   A script of top-level operations runs on a real simulation and on a
   model that keeps its queue as a plain list and always picks the
   smallest [(time, seq)].  Event [id] behaves as [behs.(id mod n)] when
   it runs: it logs itself, then does nothing, schedules children
   (delay 0 = the current instant) or cancels an earlier event. *)

type beh = Leaf | Spawn of float list | Kill of int

type op =
  | Op_at of float  (** absolute time; past times clamp to now *)
  | Op_schedule of float  (** delay; negative clamps to 0 *)
  | Op_cancel of int  (** event id, modulo the ids made so far *)
  | Op_every of float * int  (** period, firings *)
  | Op_step of int  (** engine turns *)
  | Op_until of float  (** run until now + dt *)

let model_max_ids = 300

(* Per run: the log of (id, time) firings oldest first, a (pending,
   pool_stats, now) snapshot after every op and after the final drain,
   and for every cancel the log length at that moment. *)
type outcome = {
  log : (int * float) list;
  snaps : (int * (int * int) * float) list;
  kills : (int * int) list;
  periodic : int list;
}

let run_sim (ops, behs) =
  let sim = Sim.create ~capacity:1 () in
  let log = ref [] and logged = ref 0 and snaps = ref [] and kills = ref [] in
  let periodic = ref [] in
  let handles = Array.make model_max_ids None and ids = ref 0 in
  let note id s =
    log := (id, Sim.now s) :: !log;
    incr logged
  in
  let kill k =
    if !ids > 0 then
      match handles.(k mod !ids) with
      | Some h ->
        kills := (k mod !ids, !logged) :: !kills;
        Sim.cancel sim h
      | None -> ()
  in
  let rec once make =
    if !ids < model_max_ids then begin
      let id = !ids in
      incr ids;
      handles.(id) <- Some (make (action id))
    end
  and action id s =
    note id s;
    match behs.(id mod Array.length behs) with
    | Leaf -> ()
    | Spawn ds -> List.iter (fun d -> once (fun act -> Sim.schedule s ~delay:d act)) ds
    | Kill k -> kill k
  in
  let snap () = snaps := (Sim.pending sim, Sim.pool_stats sim, Sim.now sim) :: !snaps in
  List.iter
    (fun op ->
      (match op with
      | Op_at x -> once (fun act -> Sim.at sim ~time:x act)
      | Op_schedule d -> once (fun act -> Sim.schedule sim ~delay:d act)
      | Op_cancel k -> kill k
      | Op_every (period, n) ->
        if !ids < model_max_ids then begin
          let id = !ids and left = ref n in
          incr ids;
          periodic := id :: !periodic;
          Sim.every sim ~period (fun s ->
              note id s;
              decr left;
              !left > 0)
        end
      | Op_step n ->
        for _ = 1 to n do
          ignore (Sim.step sim : bool)
        done
      | Op_until dt -> Sim.run ~until:(Sim.now sim +. dt) sim);
      snap ())
    ops;
  Sim.run sim;
  snap ();
  { log = List.rev !log; snaps = List.rev !snaps; kills = !kills; periodic = !periodic }

type mev = {
  time : float;
  mseq : int;
  id : int;
  alive : bool ref;
  every : (float * int ref) option;  (** period, firings left *)
}

let run_model (ops, behs) =
  let clock = ref 0.0 and mseq = ref 0 and queue = ref [] in
  let pushes = ref 0 and high = ref 0 in
  let log = ref [] and snaps = ref [] in
  let handles = Array.make model_max_ids None and ids = ref 0 in
  let push time id alive every =
    incr mseq;
    incr pushes;
    queue := { time; mseq = !mseq; id; alive; every } :: !queue;
    high := max !high (List.length !queue)
  in
  let earlier a b = a.time < b.time || (a.time = b.time && a.mseq < b.mseq) in
  let peek () =
    match !queue with
    | [] -> None
    | e :: rest -> Some (List.fold_left (fun m e -> if earlier e m then e else m) e rest)
  in
  let once time =
    if !ids < model_max_ids then begin
      let id = !ids and alive = ref true in
      incr ids;
      handles.(id) <- Some alive;
      push (if time < !clock then !clock else time) id alive None
    end
  in
  let kill k =
    if !ids > 0 then match handles.(k mod !ids) with Some a -> a := false | None -> ()
  in
  let fire e =
    queue := List.filter (fun x -> x != e) !queue;
    clock := e.time;
    if !(e.alive) then begin
      e.alive := false;
      log := (e.id, !clock) :: !log;
      match e.every with
      | Some (period, left) ->
        decr left;
        if !left > 0 then begin
          e.alive := true;
          push (!clock +. period) e.id e.alive e.every
        end
      | None -> (
        match behs.(e.id mod Array.length behs) with
        | Leaf -> ()
        | Spawn ds -> List.iter (fun d -> once (!clock +. Float.max d 0.0)) ds
        | Kill k -> kill k)
    end
  in
  let rec drain until =
    match peek () with
    | Some e when e.time <= until ->
      fire e;
      drain until
    | Some _ | None -> if !clock < until && until < infinity then clock := until
  in
  let snap () = snaps := (List.length !queue, (!pushes - !high, !high), !clock) :: !snaps in
  List.iter
    (fun op ->
      (match op with
      | Op_at x -> once x
      | Op_schedule d -> once (!clock +. Float.max d 0.0)
      | Op_cancel k -> kill k
      | Op_every (period, n) ->
        if !ids < model_max_ids then begin
          let id = !ids in
          incr ids;
          push !clock id (ref true) (Some (period, ref n))
        end
      | Op_step n ->
        for _ = 1 to n do
          Option.iter fire (peek ())
        done
      | Op_until dt -> drain (!clock +. dt));
      snap ())
    ops;
  drain infinity;
  snap ();
  (List.rev !log, List.rev !snaps)

let gen_model_input =
  let open QCheck.Gen in
  let delay = oneofl [ -1.0; 0.0; 0.0; 0.5; 1.0; 1.5; 2.0; 4.0 ] in
  let beh =
    frequency
      [
        (3, return Leaf);
        (3, map (fun ds -> Spawn ds) (list_size (int_range 1 2) delay));
        (1, map (fun k -> Kill k) nat);
      ]
  in
  let op =
    frequency
      [
        (3, map (fun x -> Op_at x) (oneofl [ 0.0; 1.0; 2.5; 4.0; 6.0 ]));
        (4, map (fun d -> Op_schedule d) delay);
        (2, map (fun k -> Op_cancel k) nat);
        (1, map2 (fun p n -> Op_every (p, n)) (oneofl [ 0.5; 1.0; 2.0 ]) (int_range 1 5));
        (2, map (fun n -> Op_step n) (int_range 1 4));
        (1, map (fun dt -> Op_until dt) (oneofl [ 0.0; 0.5; 2.0 ]));
      ]
  in
  pair (list_size (int_range 1 60) op) (array_size (int_range 1 8) beh)

let print_model_input (ops, behs) =
  let op = function
    | Op_at x -> Printf.sprintf "at %g" x
    | Op_schedule d -> Printf.sprintf "schedule %g" d
    | Op_cancel k -> Printf.sprintf "cancel %d" k
    | Op_every (p, n) -> Printf.sprintf "every %g x%d" p n
    | Op_step n -> Printf.sprintf "step %d" n
    | Op_until dt -> Printf.sprintf "until +%g" dt
  in
  let beh = function
    | Leaf -> "leaf"
    | Spawn ds -> "spawn [" ^ String.concat "; " (List.map string_of_float ds) ^ "]"
    | Kill k -> Printf.sprintf "kill %d" k
  in
  Printf.sprintf "ops: %s\nbehs: %s"
    (String.concat ", " (List.map op ops))
    (String.concat ", " (Array.to_list (Array.map beh behs)))

let prop_sim_matches_model =
  QCheck.Test.make ~name:"matches a sorted (time, seq) model" ~count:300
    (QCheck.make ~print:print_model_input gen_model_input)
    (fun input ->
      let o = run_sim input in
      let log, snaps = run_model input in
      (* Same-time events that are not periodic run in creation order. *)
      let rec fifo = function
        | (a, ta) :: ((b, tb) :: _ as rest) ->
          (ta <> tb || List.mem a o.periodic || List.mem b o.periodic || a < b) && fifo rest
        | [ _ ] | [] -> true
      in
      (* A cancelled event never runs after its cancel. *)
      let no_late_runs (id, at) =
        List.for_all (fun (i, _) -> i <> id) (List.filteri (fun n _ -> n >= at) o.log)
      in
      o.log = log && o.snaps = snaps && fifo o.log && List.for_all no_late_runs o.kills)

(* ------------------------------------------------------------------ *)
(* Sharded clusters *)

let test_sharded_send_and_determinism () =
  let run () =
    let c = Sim.Sharded.create ~shards:2 ~lookahead:0.1 () in
    let s0 = Sim.Sharded.shard c 0 in
    let log = ref [] in
    let rec ping n sim =
      log := (Sim.Sharded.shard_id sim, n, Sim.now sim) :: !log;
      if n < 20 then
        Sim.Sharded.send sim ~dst:(if sim == s0 then 1 else 0) ~delay:0.1 (ping (n + 1))
    in
    ignore (Sim.schedule s0 ~delay:0.0 (ping 0) : Sim.handle);
    Sim.Sharded.run c;
    (List.rev !log, Sim.Sharded.events_executed c, Sim.Sharded.messages_delivered c)
  in
  let (log, events, msgs) = run () in
  check_int "21 hops" 21 (List.length log);
  check_bool "alternates shards" true
    (List.for_all (fun (shard, n, _) -> shard = Some (n mod 2)) log);
  check_bool "messages crossed" true (msgs >= 20);
  check_bool "bit-for-bit rerun" true ((log, events, msgs) = run ())

let test_sharded_lookahead_enforced () =
  let c = Sim.Sharded.create ~shards:2 ~lookahead:0.1 () in
  let s0 = Sim.Sharded.shard c 0 in
  Alcotest.check_raises "below-lookahead cross-shard send"
    (Invalid_argument "Sim.Sharded.send: cross-shard delay below lookahead") (fun () ->
      Sim.Sharded.send s0 ~dst:1 ~delay:0.05 (fun _ -> ()));
  (* Same-shard sends may use any delay. *)
  let fired = ref false in
  Sim.Sharded.send s0 ~dst:0 ~delay:0.0 (fun _ -> fired := true);
  Sim.Sharded.run c;
  check_bool "same-shard send fired" true !fired

let test_cross_rejects_unrelated () =
  let a = Sim.create () and b = Sim.create () in
  Alcotest.check_raises "unrelated simulations"
    (Invalid_argument "Sim.cross: simulations are not in the same cluster") (fun () ->
      Sim.cross a b ~delay:1.0 (fun _ -> ()))

let test_sim_determinism () =
  (* Two identically-seeded simulations execute identical schedules. *)
  let run () =
    let sim = Sim.create () in
    let rng = Rng.create 99 in
    let log = ref [] in
    let rec tick n s =
      if n < 200 then begin
        log := (Sim.now s, n) :: !log;
        ignore (Sim.schedule s ~delay:(Rng.exponential rng ~mean:0.01) (tick (n + 1)) : Sim.handle)
      end
    in
    ignore (Sim.schedule sim ~delay:0.0 (tick 0) : Sim.handle);
    Sim.run sim;
    (!log, Sim.events_executed sim)
  in
  let a = run () and b = run () in
  check_bool "identical traces" true (a = b)

let test_series_pp_table () =
  let s = Stats.Series.create ~name:"latency" in
  for i = 0 to 199 do
    Stats.Series.add s ~time:(float_of_int i) (float_of_int (i * i))
  done;
  let rendered = Format.asprintf "%a" (Stats.Series.pp_table ~limit:10) s in
  check_bool "has header" true (String.length rendered > 0);
  (* Downsampled to roughly the limit. *)
  let lines = String.split_on_char '\n' rendered in
  check_bool "downsampled" true (List.length lines <= 15)

(* The values are boxed once, up front, so each call below receives an
   existing box and any allocation is the callee's own. *)
let boxed_floats = List.init 1000 (fun i -> 1e-3 *. float_of_int (i * i))

let test_histogram_record_allocates_nothing () =
  let h = Stats.Histogram.create () in
  let record = Stats.Histogram.record h in
  (* Warm up: grow the bucket array to its final size. *)
  List.iter record boxed_floats;
  check_words_at_most "record" 0.0 (minor_words_over 100 (fun () -> List.iter record boxed_floats))

let test_token_bucket_take_allocates_nothing () =
  let b = Token_bucket.create ~rate_bytes_per_s:1e6 ~burst_bytes:1500.0 in
  let take now = ignore (Token_bucket.take b ~now ~bytes:100 : bool) in
  check_words_at_most "take" 0.0 (minor_words_over 1 (fun () -> List.iter take boxed_floats))

let test_token_bucket_in_engine () =
  (* Smoke: the engine-level bucket integrates with simulated time. *)
  let b = Token_bucket.create ~rate_bytes_per_s:100.0 ~burst_bytes:100.0 in
  check_bool "initial burst" true (Token_bucket.take b ~now:0.0 ~bytes:100);
  check_bool "rate accessor" true (Token_bucket.rate b = 100.0);
  check_bool "burst accessor" true (Token_bucket.burst b = 100.0)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int ranges" `Quick test_rng_int_range;
          Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_rank1_dominates;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_shuffle;
        ]
        @ qsuite [ prop_chance_extremes ]
        @ [
          Alcotest.test_case "known bits64 streams" `Quick test_rng_known_bits64;
          Alcotest.test_case "known draws" `Quick test_rng_known_draws;
          Alcotest.test_case "int draws allocate nothing" `Quick
            test_rng_int_draws_allocate_nothing;
          Alcotest.test_case "float draws allocate only the result" `Quick
            test_rng_float_draws_allocate_only_the_result;
          ] );
      ( "stats",
        [
          Alcotest.test_case "percentile simple" `Quick test_percentile_simple;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolates;
          Alcotest.test_case "percentiles batch" `Quick test_percentiles_batch;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram accuracy" `Quick test_histogram_accuracy;
          Alcotest.test_case "histogram merge" `Quick test_histogram_empty_and_merge;
          Alcotest.test_case "histogram clamps negatives" `Quick test_histogram_negative_clamped;
          Alcotest.test_case "histogram record allocates nothing" `Quick
            test_histogram_record_allocates_nothing;
          Alcotest.test_case "series" `Quick test_series;
        ]
        @ qsuite [ prop_histogram_percentile_close ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "stale handle" `Quick test_sim_stale_handle;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "every stops on false" `Quick test_sim_every_stops;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "negative delay clamped" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "bit-for-bit determinism" `Quick test_sim_determinism;
          Alcotest.test_case "event pool reuse" `Quick test_sim_pool_reuse;
          Alcotest.test_case "every reuses one record" `Quick test_sim_every_pool;
          Alcotest.test_case "timeout fires coarsely" `Quick test_sim_timeout_fires_coarse;
          Alcotest.test_case "timeout cancel" `Quick test_sim_timeout_cancel;
          Alcotest.test_case "timeout loop ends on None" `Quick test_sim_timeout_loop_none_ends;
          Alcotest.test_case "timeout cancel inside its loop" `Quick test_sim_timeout_cancel_inside;
          Alcotest.test_case "timeout loop promotes little" `Quick
            test_sim_timeout_loop_promotes_little;
          Alcotest.test_case "an ended loop leaves nothing behind" `Quick
            test_sim_ended_loop_unreachable;
        ]
        @ qsuite
            [ prop_timeout_matches_schedule; prop_timeout_loop_matches_readd; prop_sim_matches_model ]
      );
      ( "rings",
        [
          Alcotest.test_case "smartnic fifo order" `Quick test_nic_fifo_order;
          Alcotest.test_case "smartnic crash mid-queue" `Quick test_nic_crash_mid_queue;
          Alcotest.test_case "vm fifo delivery" `Quick test_vm_fifo_delivery;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "send + determinism" `Quick test_sharded_send_and_determinism;
          Alcotest.test_case "lookahead enforced" `Quick test_sharded_lookahead_enforced;
          Alcotest.test_case "cross rejects unrelated" `Quick test_cross_rejects_unrelated;
        ] );
      ( "misc",
        [
          Alcotest.test_case "series table rendering" `Quick test_series_pp_table;
          Alcotest.test_case "token bucket accessors" `Quick test_token_bucket_in_engine;
          Alcotest.test_case "token bucket take allocates nothing" `Quick
            test_token_bucket_take_allocates_nothing;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "fires in window" `Quick test_wheel_fires_in_window;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "multi revolution" `Quick test_wheel_multi_revolution;
          Alcotest.test_case "past deadline clamped" `Quick test_wheel_min_one_tick;
          Alcotest.test_case "re-arm into the swept slot" `Quick test_wheel_rearm_swept_slot;
          Alcotest.test_case "re-arm in place" `Quick test_wheel_rearm_in_place;
          Alcotest.test_case "re-arm allocates nothing" `Quick test_wheel_rearm_allocates_nothing;
        ]
        @ qsuite [ prop_wheel_fires_everything; prop_wheel_matches_list_model ] );
    ]
