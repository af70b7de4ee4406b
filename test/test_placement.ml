(* Differential and property tests for the placement policies.  The
   power-of-two-choices selector must never pick a suspect FE while a
   healthy one remains, must degenerate to a hash-equivalent uniform
   spread under uniform load (chi-squared bound on a fixed seed), must
   be seed-deterministic, and must keep the paper's same-rack
   preference exactly while the local load stays within the band. *)

open Nezha_engine
open Nezha_core

type server = { id : int; rack : int; load : float; bad : bool }

let pick ~seed ?(be_rack = 0) ~count servers =
  let rng = Rng.create seed in
  Placement.select_p2c ~rng
    ~eligible:(fun _ -> true)
    ~same_rack:(fun s -> s.rack = be_rack)
    ~load:(fun s -> s.load)
    ~suspect:(fun s -> s.bad)
    ~count servers

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let server_gen =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* specs =
      list_size (return n)
        (triple (int_range 0 3) (float_bound_inclusive 1.0) bool)
    in
    let servers =
      List.mapi (fun id (rack, load, bad) -> { id; rack; load; bad }) specs
    in
    let* count = int_range 1 n in
    let* seed = int_range 0 0x3FFFFFFF in
    return (servers, count, seed))

let arb =
  QCheck.make server_gen ~print:(fun (servers, count, seed) ->
      Printf.sprintf "count=%d seed=%d servers=[%s]" count seed
        (String.concat "; "
           (List.map
              (fun s ->
                Printf.sprintf "#%d rack%d load %.2f%s" s.id s.rack s.load
                  (if s.bad then " SUSPECT" else ""))
              servers)))

(* A suspect in the selection implies every healthy server was selected
   first — suspects are strictly a last resort. *)
let prop_suspects_last =
  QCheck.Test.make ~name:"p2c never picks a suspect while a healthy FE remains"
    ~count:500 arb (fun (servers, count, seed) ->
      let chosen = pick ~seed ~count servers in
      let chose_suspect = List.exists (fun s -> s.bad) chosen in
      (not chose_suspect)
      || List.for_all
           (fun s -> s.bad || List.exists (fun c -> c.id = s.id) chosen)
           servers)

let prop_seed_deterministic =
  QCheck.Test.make ~name:"p2c is a pure function of the seed" ~count:200 arb
    (fun (servers, count, seed) ->
      pick ~seed ~count servers = pick ~seed ~count servers)

(* Sanity envelope shared by both policies: right size, no duplicates,
   drawn from the input. *)
let prop_selection_well_formed =
  QCheck.Test.make ~name:"p2c selection is well-formed" ~count:200 arb
    (fun (servers, count, seed) ->
      let chosen = pick ~seed ~count servers in
      let ids = List.map (fun s -> s.id) chosen in
      List.length chosen = min count (List.length servers)
      && List.sort_uniq compare ids = List.sort compare ids
      && List.for_all (fun s -> List.exists (fun x -> x.id = s.id) servers)
           chosen)

(* Differential against the paper's least-loaded ordering: asked for the
   whole pool, both policies must return the same set — they only differ
   in ranking, never in membership. *)
let prop_full_pool_agrees_with_least_loaded =
  QCheck.Test.make ~name:"p2c and least-loaded agree on the full pool"
    ~count:200 arb (fun (servers, _count, seed) ->
      let n = List.length servers in
      let p2c = pick ~seed ~count:n servers in
      let ll =
        Placement.select
          ~eligible:(fun _ -> true)
          ~same_rack:(fun s -> s.rack = 0)
          ~cpu:(fun s -> s.load)
          ~count:n servers
      in
      let ids l = List.sort compare (List.map (fun s -> s.id) l) in
      ids p2c = ids ll)

(* ------------------------------------------------------------------ *)
(* Fixed-seed regressions *)

(* Under uniform load the two-choice draw degenerates to a uniform pick,
   so the spread over many selections must pass a chi-squared bound —
   the same test a hash-based spreader would pass.  df = 7; 24.32 is the
   99.9th percentile, and the seed is fixed, so this never flakes. *)
let test_uniform_load_uniform_spread () =
  let n = 8 and trials = 4000 in
  let servers = List.init n (fun id -> { id; rack = 1; load = 0.5; bad = false }) in
  let rng = Rng.create 20260808 in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    match
      Placement.select_p2c ~rng
        ~eligible:(fun _ -> true)
        ~same_rack:(fun _ -> false)
        ~load:(fun s -> s.load)
        ~suspect:(fun s -> s.bad)
        ~count:1 servers
    with
    | [ s ] -> counts.(s.id) <- counts.(s.id) + 1
    | other -> Alcotest.failf "expected 1 pick, got %d" (List.length other)
  done;
  let expected = float_of_int trials /. float_of_int n in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  if chi2 > 24.32 then
    Alcotest.failf "spread not uniform: chi2 %.2f > 24.32 (counts %s)" chi2
      (String.concat "," (Array.to_list (Array.map string_of_int counts)))

(* Rack locality (App. B.1): same-rack candidates are preferred exactly
   while their load stays within the band of the global minimum... *)
let test_same_rack_preferred_within_band () =
  let servers =
    [
      { id = 0; rack = 0; load = 0.20; bad = false };
      { id = 1; rack = 0; load = 0.22; bad = false };
      { id = 2; rack = 1; load = 0.10; bad = false };
      { id = 3; rack = 1; load = 0.12; bad = false };
    ]
  in
  (* min healthy load 0.10 + band 0.15 = 0.25: both rack-0 servers are
     near-tier, so every seed must pick them first. *)
  for seed = 0 to 49 do
    let chosen = pick ~seed ~count:2 servers in
    if not (List.for_all (fun s -> s.rack = 0) chosen) then
      Alcotest.failf "seed %d left the rack while local was in-band: [%s]" seed
        (String.concat ";" (List.map (fun s -> string_of_int s.id) chosen))
  done

(* ... and abandoned the moment the local servers are overloaded. *)
let test_cross_rack_when_local_overloaded () =
  let servers =
    [
      { id = 0; rack = 0; load = 0.60; bad = false };
      { id = 1; rack = 1; load = 0.10; bad = false };
      { id = 2; rack = 1; load = 0.12; bad = false };
    ]
  in
  (* 0.60 > 0.10 + 0.15: the same-rack server is out of the band, so a
     single pick must go cross-rack on every seed. *)
  for seed = 0 to 49 do
    match pick ~seed ~count:1 servers with
    | [ s ] when s.rack <> 0 -> ()
    | chosen ->
        Alcotest.failf "seed %d stayed on the overloaded rack: [%s]" seed
          (String.concat ";"
             (List.map (fun s -> string_of_int s.id) chosen))
  done

let test_suspect_only_as_last_resort_fixed () =
  let servers =
    [
      { id = 0; rack = 0; load = 0.01; bad = true };
      { id = 1; rack = 1; load = 0.99; bad = false };
    ]
  in
  for seed = 0 to 49 do
    match pick ~seed ~count:1 servers with
    | [ s ] when s.id = 1 -> ()
    | _ -> Alcotest.failf "seed %d chose the idle suspect over a healthy FE" seed
  done;
  (* Asked for both, the suspect is still returned — last. *)
  let both = pick ~seed:7 ~count:2 servers in
  Alcotest.(check (list int)) "suspect ranked last" [ 1; 0 ]
    (List.map (fun s -> s.id) both)

(* Scale-in victim ranking: cross-rack before same-rack, most loaded
   first within a tier, input order kept on ties. *)
let evict ~be_rack servers =
  List.map
    (fun s -> s.id)
    (Placement.evict_order ~same_rack:(fun s -> s.rack = be_rack) ~load:(fun s -> s.load) servers)

let test_evict_cross_rack_first () =
  let servers =
    [
      { id = 0; rack = 0; load = 0.9; bad = false };
      { id = 1; rack = 1; load = 0.1; bad = false };
      { id = 2; rack = 0; load = 0.2; bad = false };
      { id = 3; rack = 2; load = 0.05; bad = false };
    ]
  in
  Alcotest.(check (list int)) "cross-rack, even idle, goes first" [ 1; 3; 0; 2 ]
    (evict ~be_rack:0 servers)

let test_evict_most_loaded_first () =
  let servers =
    List.map
      (fun (id, load) -> { id; rack = 1; load; bad = false })
      [ (0, 0.3); (1, 0.8); (2, 0.1); (3, 0.5) ]
  in
  Alcotest.(check (list int)) "descending load" [ 1; 3; 0; 2 ] (evict ~be_rack:0 servers)

let test_evict_stable_on_ties () =
  let servers =
    List.map
      (fun (id, rack) -> { id; rack; load = 0.4; bad = false })
      [ (5, 0); (2, 1); (7, 0); (1, 1); (3, 0) ]
  in
  Alcotest.(check (list int)) "ties keep input order" [ 2; 1; 5; 7; 3 ]
    (evict ~be_rack:0 servers)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_suspects_last;
      prop_seed_deterministic;
      prop_selection_well_formed;
      prop_full_pool_agrees_with_least_loaded;
    ]

let () =
  Alcotest.run "placement"
    [
      ("p2c-properties", qsuite);
      ( "p2c-regressions",
        [
          Alcotest.test_case "uniform load gives uniform spread (chi2)" `Quick
            test_uniform_load_uniform_spread;
          Alcotest.test_case "same-rack preferred within load band" `Quick
            test_same_rack_preferred_within_band;
          Alcotest.test_case "cross-rack when local overloaded" `Quick
            test_cross_rack_when_local_overloaded;
          Alcotest.test_case "suspect only as last resort" `Quick
            test_suspect_only_as_last_resort_fixed;
        ] );
      ( "evict-order",
        [
          Alcotest.test_case "cross-rack first" `Quick test_evict_cross_rack_first;
          Alcotest.test_case "most loaded first" `Quick test_evict_most_loaded_first;
          Alcotest.test_case "stable on ties" `Quick test_evict_stable_on_ties;
        ] );
    ]
