(* Fleet view: the "shortage amid waste" paradox of §2.2, and what Nezha
   does to it.

   Samples a synthetic region calibrated to the paper's published
   percentiles, classifies the hotspots, and estimates the before/after
   daily overloads.

     dune exec examples/region_hotspots.exe *)

open Nezha_engine
open Nezha_workloads

let say fmt = Printf.printf (fmt ^^ "\n%!")

let () =
  let rng = Rng.create 7 in
  let n = 30_000 in
  let fleet = Region.sample_fleet rng ~n in
  say "Sampled a region of %d vSwitches (quantile-matched to Fig. 4 / Table 1)." n;

  let cpus = Array.map (fun p -> p.Region.cpu) fleet in
  say "";
  say "The paradox: average CPU %.1f%%, yet P9999 %.0f%% — most SmartNICs idle while a few drown."
    (100.0 *. Stats.mean cpus)
    (100.0 *. Stats.percentile cpus 99.99);
  let idle = Array.fold_left (fun a u -> if u < 0.30 then a + 1 else a) 0 cpus in
  say "FE candidates (CPU < 30%%): %d of %d (%.1f%%) — the resource pool is already deployed."
    idle n
    (100.0 *. float_of_int idle /. float_of_int n);

  say "";
  say "Hotspot causes (Fig. 3):";
  let counts = Region.classify Region.default_capacities fleet in
  let total = List.fold_left (fun a (_, x) -> a + x) 0 counts in
  List.iter
    (fun (cause, x) ->
      say "  %-18s %5.1f%%"
        (Format.asprintf "%a" Region.pp_cause cause)
        (100.0 *. float_of_int x /. float_of_int (max 1 total)))
    counts;

  say "";
  say "A month of overloads, before and after Nezha (Fig. 13):";
  List.iter
    (fun cause ->
      let days =
        Region.daily_overloads rng ~n_vswitches:n ~capacities:Region.default_capacities ~cause
          ~days:30
      in
      let before = List.fold_left (fun a d -> a + d.Region.before) 0 days in
      let after = List.fold_left (fun a d -> a + d.Region.after) 0 days in
      say "  %-18s %6d -> %3d  (%.2f%% resolved)"
        (Format.asprintf "%a" Region.pp_cause cause)
        before after
        (100.0 *. (1.0 -. (float_of_int after /. float_of_int (max 1 before)))))
    [ Region.Cps; Region.Flows; Region.Vnics ];

  say "";
  say "Why the fixed 64 B state slot wastes memory (Fig. 15 / §7.1):";
  let sizes = Region.state_size_samples rng ~n:20_000 in
  say "  measured average state size: %.1f B (max %.0f B) — %.0fx headroom in the slot"
    (Stats.mean sizes)
    (Array.fold_left Float.max 0.0 sizes)
    (64.0 /. Stats.mean sizes)
