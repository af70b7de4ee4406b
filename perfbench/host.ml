(* Host time: the process's CPU time, calibrated against a reference
   probe.

   The DES is single-threaded, so CPU seconds measure the program rather
   than the scheduler.  But the benchmark shares physical cores with
   other tenants of its host, and their load slows the same work by up
   to 2x for seconds at a time: on a 2-vCPU VM the raw packet rate of a
   15 s window moved by 27% between processes.  So every timed sample is
   paired with a probe, a fixed loop of lookups in a small stdlib hash
   table that stays in cache (code this repository does not own), timed
   just before and just after the sample.  A sample's calibrated time is
   [cpu *. ref_probe_s /. probe], the CPU time it would take on a host
   where the probe takes [ref_probe_s]: a slow phase of the host slows
   probe and sample alike and cancels, while work the program stops
   doing shows at full strength.  Calibrated, the quartile spread of the
   rates over ten seeds is 2-5% on the testbed workloads and 5-10% on
   region_day, whose large heap the cache-resident probe tracks less
   closely. *)

let cpu = Sys.time

(* The probe's CPU time on an idle 2-vCPU Intel Xeon VM. *)
let ref_probe_s = 0.0028

let probe_keys = 4096
let probe_lookups = 100_000

let probe_table =
  lazy
    (let t = Hashtbl.create probe_keys in
     for i = 0 to probe_keys - 1 do
       Hashtbl.replace t i i
     done;
     t)

let probe () =
  let t = Lazy.force probe_table in
  let t0 = cpu () in
  let acc = ref 0 in
  for i = 1 to probe_lookups do
    acc := !acc + Hashtbl.find t (i * 7919 land (probe_keys - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  cpu () -. t0

(* One timed sample: raw CPU seconds and the mean of its two probes. *)
type sample = { cpu_s : float; probe_s : float }

let sample ~before ~after cpu_s = { cpu_s; probe_s = (before +. after) /. 2.0 }
let calibrated s = s.cpu_s *. ref_probe_s /. s.probe_s
let total f samples = List.fold_left (fun acc s -> acc +. f s) 0.0 samples

(* The codebase's percentile definition. *)
let median_calibrated samples =
  Nezha_engine.Stats.percentile (Array.of_list (List.map calibrated samples)) 50.0

(* Run [f 0], [f 1], ... until at least [min_reps] runs and [budget] raw
   CPU seconds are spent (at most [max_reps]), each from a collected
   heap when [collect].  Returns the samples and the last result. *)
let repeat ?(collect = true) ?(min_reps = 5) ?(max_reps = 200) ~budget f =
  let rec go i spent before acc =
    if collect then Gc.full_major ();
    let t0 = cpu () in
    let r = f i in
    let dt = cpu () -. t0 in
    let after = probe () in
    let acc = sample ~before ~after dt :: acc in
    let i = i + 1 and spent = spent +. dt in
    if i >= max_reps || (i >= min_reps && spent >= budget) then (List.rev acc, r)
    else go i spent after acc
  in
  go 0 0.0 (probe ()) []
