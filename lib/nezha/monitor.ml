open Nezha_engine

type target = {
  probe : reply:(unit -> unit) -> unit;
  on_fail : key:int -> unit;
  mutable misses : int;
}

(* One in-flight probe of a round: the reply closure flips [replied]
   before the collect deadline, or the probe counts as missed. *)
type slot = { key : int; tgt : target; mutable replied : bool }

let interval = 0.5
let probe_timeout = interval /. 2.0
let misses_to_fail = 3
let mass_failure_fraction = 0.8

type t = {
  sim : Sim.t;
  targets : (int, target) Hashtbl.t;
  mutable running : bool;
  mutable probes : int;
  mutable missed : int;
  mutable failures : int;
  mutable mass_suspected : int;
}

let create ~sim =
  {
    sim;
    targets = Hashtbl.create 16;
    running = false;
    probes = 0;
    missed = 0;
    failures = 0;
    mass_suspected = 0;
  }

let watch_probe t ~key ~probe ~on_fail =
  Hashtbl.replace t.targets key { probe; on_fail; misses = 0 }

let watch t ~key ~alive ~on_fail =
  watch_probe t ~key ~probe:(fun ~reply -> if alive () then reply ()) ~on_fail

let unwatch t ~key = Hashtbl.remove t.targets key

let watched t = Hashtbl.length t.targets

let is_suspect t ~key =
  match Hashtbl.find_opt t.targets key with
  | Some tgt -> tgt.misses >= 1
  | None -> false

let suspects t =
  Hashtbl.fold
    (fun key tgt acc -> if tgt.misses >= 1 then key :: acc else acc)
    t.targets []
  |> List.sort compare

(* The deadline sweep for one round's probes.  A slot only counts if its
   target record is *physically* still the table binding: a re-watch
   between probe and collect replaced the record (misses reset to 0), and
   the stale in-flight probe must not score against — or for — it. *)
let collect t slots =
  let live =
    List.filter
      (fun s ->
        match Hashtbl.find_opt t.targets s.key with
        | Some tgt -> tgt == s.tgt
        | None -> false)
      slots
  in
  let n = List.length live in
  if n > 0 then begin
    let newly_failed = ref [] in
    List.iter
      (fun s ->
        if s.replied then s.tgt.misses <- 0
        else begin
          t.missed <- t.missed + 1;
          s.tgt.misses <- s.tgt.misses + 1;
          if s.tgt.misses >= misses_to_fail then
            newly_failed := (s.key, s.tgt) :: !newly_failed
        end)
      live;
    let newly_failed = List.rev !newly_failed in
    let failed_count = List.length newly_failed in
    if
      failed_count > 0
      && float_of_int failed_count >= mass_failure_fraction *. float_of_int n
      && n > 1
    then begin
      (* §C.2: a majority of FEs "failing" at once smells like a monitor
         bug; hold off automatic removal and retry next round. *)
      t.mass_suspected <- t.mass_suspected + 1;
      List.iter (fun (_, tgt) -> tgt.misses <- misses_to_fail - 1) newly_failed
    end
    else
      List.iter
        (fun (key, tgt) ->
          Hashtbl.remove t.targets key;
          t.failures <- t.failures + 1;
          tgt.on_fail ~key)
        newly_failed
  end

let probe_round t =
  if Hashtbl.length t.targets > 0 then begin
    (* Snapshot in sorted key order so probe side effects (rng draws in
       the fault plane) happen in a deterministic order. *)
    let keys =
      List.sort compare (Hashtbl.fold (fun key _ acc -> key :: acc) t.targets [])
    in
    let slots =
      List.filter_map
        (fun key ->
          match Hashtbl.find_opt t.targets key with
          | None -> None
          | Some tgt ->
            t.probes <- t.probes + 1;
            let s = { key; tgt; replied = false } in
            tgt.probe ~reply:(fun () -> s.replied <- true);
            Some s)
        keys
    in
    ignore
      (Sim.schedule t.sim ~delay:probe_timeout (fun _ ->
           if t.running then collect t slots)
        : Sim.handle)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Sim.every t.sim ~period:interval (fun _ ->
        if t.running then probe_round t;
        t.running)
  end

let stop t = t.running <- false

let probes_sent t = t.probes
let probes_missed t = t.missed
let failures_declared t = t.failures
let mass_failure_suspected t = t.mass_suspected

let register_telemetry t reg =
  let module T = Nezha_telemetry.Telemetry in
  T.register_counter reg ~name:"monitor/probes_sent" (fun () -> t.probes);
  T.register_counter reg ~name:"monitor/probes_missed" (fun () -> t.missed);
  T.register_counter reg ~name:"monitor/failures_declared" (fun () -> t.failures);
  T.register_counter reg ~name:"monitor/mass_failure_suspected" (fun () ->
      t.mass_suspected);
  T.register_gauge reg ~name:"monitor/watched" (fun () ->
      float_of_int (watched t))
