(* The control policy as a pure decision core — see policy.mli. *)

open Nezha_engine
open Nezha_vswitch

(* The paper's control policy (§4, Fig. 8, App. B): one value each. *)
let offload_threshold = 0.70 (* §4.2.1 / Fig. 8 *)
let scale_threshold = 0.40 (* Fig. 8 *)
let safe_level = 0.40 (* target utilization after mitigation *)
let overload_level = 0.95 (* an overload occurrence (Fig. 13) *)
let initial_fes = 4 (* App. B.2 *)
let min_fes = 4 (* failover floor, §4.4 *)
let fe_cpu_max = 0.30 (* idle-candidate CPU ceiling, §4.2.1 *)
let fe_mem_max = 0.50 (* idle-candidate memory ceiling *)
let fallback_idle_ticks = 5 (* §4.2.2: fall back only when clearly absorbable *)
let remote_pressure = 0.5 (* Fig. 8: busy share spent on FE work that means remote pressure *)
let fe_idle_cpu = 0.05 (* an FE this quiet counts as idle for fallback *)
let ewma_alpha = 0.3 (* smoothing of the p2c CPU load signal *)
let fe_pressure_weight = 0.05 (* p2c load per vNIC already steered at a server *)
let rescale_after = 1.5 (* report intervals between scale-outs of one offload *)
let evict_holdoff = 30.0 (* report intervals an evicted server is left alone *)
let drain_holdoff = 5.0 (* report intervals a drained FE is left alone *)

let wants_offload ~cpu ~mem = cpu > offload_threshold || mem > offload_threshold
let idle_candidate ~cpu ~mem = cpu <= fe_cpu_max && mem <= fe_mem_max

type config = {
  report_interval : float; auto_offload : bool; auto_scale : bool; auto_fallback : bool;
  placement : Placement.policy;
}

type key = int * int

type 'a offload = {
  id : int; key : key; addr : Vnic.Addr.t; be_server : int; fes : int list;
  completed_at : float option; falling_back : bool; repairing : bool; idle_ticks : int;
  last_scaled : float option; node : 'a;
}

(* What the controller was told of one server. *)
type server = {
  last : (float * float) option;
  ewma : float option;
  overloads : int;
  holdoff : float option; (* not an FE candidate before this time *)
  slow_prev : (Vnic.id * int) list;
  remote_prev : int;
  busy_prev : float;
}

module Ids = Map.Make (Int)

(* Servers by id; active offloads by id, which is creation order. *)
type 'a view = { cfg : config; servers : server Ids.t; active : 'a offload Ids.t; next : int }

let unreported =
  { last = None; ewma = None; overloads = 0; holdoff = None; slow_prev = []; remote_prev = 0; busy_prev = 0.0 }

let create cfg = { cfg; servers = Ids.empty; active = Ids.empty; next = 0 }
let offloads v = List.map snd (Ids.bindings v.active)
let find v id = Ids.find_opt id v.active
let find_key v key = List.find_opt (fun o -> o.key = key) (offloads v)
let next_id v = v.next
let server v s = Option.value (Ids.find_opt s v.servers) ~default:unreported
let report v s = (server v s).last
let overloads v s = (server v s).overloads
let total_overloads v = Ids.fold (fun _ s acc -> acc + s.overloads) v.servers 0
let fe_pool v = List.sort_uniq compare (List.concat_map (fun o -> o.fes) (offloads v))
let put v o = { v with active = Ids.add o.id o v.active }
let put_server v s srv = { v with servers = Ids.add s srv v.servers }
let with_addr v addr = List.filter (fun o -> Vnic.Addr.equal o.addr addr) (offloads v)

let add v ~key ~addr ~be_server ~fes ~completed_at ~repairing node =
  let o =
    { id = v.next; key; addr; be_server; fes; completed_at; falling_back = false; repairing;
      idle_ticks = 0; last_scaled = None; node }
  in
  ({ (put v o) with next = v.next + 1 }, o)

(* ------------------------------------------------------------------ *)
(* Node facts *)

type candidate = {
  server : int; rack : int; vswitch : bool; crashed : bool; version : int;
  peek : float * float; fe_served : int option; suspect : bool;
}

type pool = { now : float; draw : Rng.t; be_rack : int; candidates : candidate array }

let utilization v (c : candidate) = Option.value (report v c.server) ~default:c.peek

let load v (c : candidate) =
  let base = match (server v c.server).ewma with Some e -> e | None -> fst (utilization v c) in
  base +. match c.fe_served with Some n -> fe_pressure_weight *. float_of_int n | None -> 0.0

type vnic_load = { vnic : Vnic.id; tables : bool; slow_execs : int; mem_bytes : int }

type report = {
  server : int; now : float; cpu : float; mem : float; fe_served : int;
  first_served : Vnic.Addr.t option; remote_cycles : int; busy : float; cpu_hz : float;
  vnics : vnic_load list;
}

type replica = Serving | Lost | Gone
type health = { be_open : bool; be_host_ok : bool; replicas : (int * replica) list; routed : bool }

let installed o h =
  o.fes <> [] && h.be_open
  && List.for_all (fun s -> List.assoc_opt s h.replicas = Some Serving) o.fes
  && h.routed

let conserved v ~health =
  Ids.for_all
    (fun _ o -> o.falling_back || o.completed_at = None || o.repairing || installed o (health o))
    v.active

(* ------------------------------------------------------------------ *)
(* FE candidate selection (§4.2.1, App. B.1): idle vSwitches, same ToR
   as the BE first, then the wider pool; similar load preferred. *)

let select v (p : pool) ~be_server ~exclude ~count ?(version_ok = fun _ -> true) () =
  (* Candidates are indexed by server id. *)
  let excluded = Array.make (Array.length p.candidates) false in
  List.iter (fun s -> if s >= 0 && s < Array.length excluded then excluded.(s) <- true) exclude;
  let eligible (c : candidate) =
    c.server <> be_server
    && (not excluded.(c.server))
    && c.vswitch && (not c.crashed) && version_ok c.version
    (* A server that just gave up its FEs needs its resources for local
       traffic; leave it alone for a while. *)
    && (match (server v c.server).holdoff with Some until -> p.now >= until | None -> true)
    &&
    let cpu, mem = utilization v c in
    idle_candidate ~cpu ~mem
  in
  let same_rack (c : candidate) = c.rack = p.be_rack in
  let servers = Array.to_list p.candidates in
  List.map
    (fun (c : candidate) -> c.server)
    (match v.cfg.placement with
    | Placement.Least_loaded ->
      Placement.select ~eligible ~same_rack ~cpu:(fun c -> fst (utilization v c)) ~count servers
    | Placement.Power_of_two ->
      Placement.select_p2c ~rng:p.draw ~eligible ~same_rack ~load:(load v)
        ~suspect:(fun c -> c.suspect) ~count servers)

(* ------------------------------------------------------------------ *)
(* Inputs and intents *)

type 'a input =
  | Report of report
  | Tick of { health : (int * health) list }
  | Slo of Slo.decision
  | Offload of {
      server : int; vnic : Vnic.id; addr : Vnic.Addr.t; num_fes : int; avoid : int list;
      version_ok : int -> bool; pool : pool; node : 'a;
    }
  | Pushed of { id : int; fes : int list }
  | Activated of { id : int; at : float }
  | Scale_out of { id : int; add : int; avoid : int list; pool : pool }
  | Joined of { id : int; fes : int list }
  | Scale_in_server of { server : int; served : Vnic.Addr.t list; now : float }
  | Scale_in_offload of { id : int; remove : int; pool : pool }
  | Dead of { server : int; served : Vnic.Addr.t list }
  | Crashed of int
  | Restarted of { server : int; fe_unserved : int list; be_closed : int list }
  | Fallback of int
  | Retired of int
  | Pin of { id : int; pool : pool }
  | Migrate of { id : int; to_server : int }
  | Adopt of { key : key; addr : Vnic.Addr.t; be_server : int; fes : int list; now : float; node : 'a }

type 'a intent =
  | Offload_vnic of { server : int; vnic : Vnic.id }
  | Push of { o : 'a offload; fes : int list }
  | Grow of { o : 'a offload; add : int; avoid : int list; or_fallback : bool }
  | Serve_replica of { o : 'a offload; server : int }
  | Evict_server of int
  | Shrink of { o : 'a offload; remove : int }
  | Route of 'a offload
  | Readvertise of 'a offload
  | Restore_route of 'a offload
  | Restore_fe of { o : 'a offload; server : int; rpc : bool }
  | Reinstall_be of 'a offload
  | Unserve of { server : int; addr : Vnic.Addr.t }
  | Retire_replica_later of { server : int; addr : Vnic.Addr.t }
  | Unwatch of int
  | Fall_back of 'a offload
  | Pin_flow of { o : 'a offload; server : int }

let only cond intent = if cond then [ intent ] else []

(* Thread the view through [f] over [xs], concatenating the intents. *)
let fold_steps f v xs =
  let step (v, acc) x = let v, is = f v x in (v, List.rev_append is acc) in
  let v, acc = List.fold_left step (v, []) xs in
  (v, List.rev acc)

(* Fig. 8 on one report. *)
let on_report v (r : report) =
  let srv = server v r.server in
  let srv' =
    { srv with last = Some (r.cpu, r.mem);
      ewma = Some (match srv.ewma with Some e -> e +. (ewma_alpha *. (r.cpu -. e)) | None -> r.cpu);
      overloads = srv.overloads + Bool.to_int (r.cpu > overload_level || r.mem > overload_level);
      slow_prev = List.map (fun l -> (l.vnic, l.slow_execs)) r.vnics }
  in
  if r.fe_served > 0 && v.cfg.auto_scale && r.cpu > scale_threshold then begin
    let busy_delta = r.busy -. srv.busy_prev in
    let remote_secs = float_of_int (r.remote_cycles - srv.remote_prev) /. r.cpu_hz in
    let rf = if busy_delta <= 1e-12 then 0.0 else Float.min 1.0 (remote_secs /. busy_delta) in
    let v = put_server v r.server { srv' with remote_prev = r.remote_cycles; busy_prev = r.busy } in
    if rf > remote_pressure then
      (* Remote pressure: scale out the offloads served here — doubling
         each FE set, but at most once per report interval even if
         several of its FEs are hot at once. *)
      match r.first_served with
      | None -> (v, [])
      | Some addr ->
        fold_steps
          (fun v o ->
            match o.last_scaled with
            | Some t0 when r.now -. t0 < v.cfg.report_interval *. rescale_after -> (v, [])
            | Some _ | None ->
              let o = { o with last_scaled = Some r.now } in
              (put v o, [ Grow { o; add = List.length o.fes; avoid = []; or_fallback = false } ]))
          v (with_addr v addr)
    else (v, [ Evict_server r.server ]) (* local pressure: evict the FEs *)
  end
  else begin
    let v = put_server v r.server srv' in
    if not (v.cfg.auto_offload && wants_offload ~cpu:r.cpu ~mem:r.mem) then (v, [])
    else begin
      (* The heaviest vNIC still holding its tables: by memory when
         memory is the pressure, else by slow-path work since the last
         report. *)
      let score l =
        if r.mem > r.cpu then float_of_int l.mem_bytes
        else float_of_int (l.slow_execs - Option.value (List.assoc_opt l.vnic srv.slow_prev) ~default:0)
      in
      match List.filter (fun l -> l.tables) r.vnics with
      | [] -> (v, [])
      | first :: _ as ls ->
        let l = List.fold_left (fun best l -> if score l > score best then l else best) first ls in
        if find_key v (r.server, Vnic.id_to_int l.vnic) = None then
          (v, [ Offload_vnic { server = r.server; vnic = l.vnic } ])
        else (v, [])
    end
  end

(* Anti-entropy (§13): diff intent against the reported dataplane and
   repair what the lifecycle events missed. *)
let repair health v o =
  match List.assoc_opt o.id health with
  | Some h when (not o.falling_back) && o.completed_at <> None ->
    if installed o h then (put v { o with repairing = false }, [])
    else begin
      let o = { o with repairing = true } in
      let lost = List.filter (fun s -> List.assoc_opt s h.replicas = Some Lost) o.fes in
      ( put v o,
        only ((not h.be_open) && h.be_host_ok) (Reinstall_be o)
        @ List.map (fun server -> Restore_fe { o; server; rpc = true }) lost
        @ only ((not h.routed) && o.fes <> []) (Restore_route o) )
    end
  | Some _ | None -> (v, [])

(* §4.2.2: fall back once the local vSwitch would stay below the safe
   level even with the offloaded load back — approximated as several
   consecutive reports with every FE near-idle and the BE well under
   the safe level. *)
let idle_fallback v o =
  if o.falling_back || o.completed_at = None then (v, [])
  else begin
    let cpu s = match report v s with Some (c, _) -> c | None -> 1.0 in
    if (not (List.exists (fun s -> cpu s > fe_idle_cpu) o.fes)) && cpu o.be_server < safe_level /. 2.0
    then begin
      let o = { o with idle_ticks = o.idle_ticks + 1 } in
      (put v o, if o.idle_ticks >= fallback_idle_ticks then [ Fall_back o ] else [])
    end
    else (put v { o with idle_ticks = 0 }, [])
  end

(* Take [server] out of [o]'s FE set and refill to [min_fes] from
   other servers; with no FE left and none added, fall back rather than
   blackhole the vNIC. *)
let drop_fe server v o =
  let o = { o with fes = List.filter (fun s -> s <> server) o.fes } in
  let missing = min_fes - List.length o.fes in
  ( put v o,
    (* An empty target set cannot be routed. *)
    only (o.fes <> []) (Route o)
    @ only (missing > 0) (Grow { o; add = missing; avoid = [ server ]; or_fallback = o.fes = [] }) )

let hold v s ~until = put_server v s { (server v s) with holdoff = Some until }

(* The thinnest offload (likeliest tail contributor) or the fattest,
   ties by key. *)
let extreme v ~thinnest =
  let by a b =
    let c = compare (List.length a.fes) (List.length b.fes) in
    match if thinnest then c else -c with 0 -> compare a.key b.key | c -> c
  in
  match List.sort by (offloads v) with o :: _ -> Some o | [] -> None

let update v id f = match find v id with Some o -> (put v (f o), []) | None -> (v, [])

let step v = function
  | Report r -> on_report v r
  | Tick { health } ->
    let v, repairs = fold_steps (repair health) v (offloads v) in
    let v, fallbacks = if v.cfg.auto_fallback then fold_steps idle_fallback v (offloads v) else (v, []) in
    (v, repairs @ fallbacks)
  | Slo (Slo.Hold _) -> (v, [])
  | Slo (Slo.Scale_out add) -> (
    match extreme v ~thinnest:true with
    | Some o -> (v, [ Grow { o; add; avoid = []; or_fallback = false } ])
    | None -> (v, []))
  | Slo (Slo.Scale_in remove) -> (
    match extreme v ~thinnest:false with Some o -> (v, [ Shrink { o; remove } ]) | None -> (v, []))
  | Offload { server; vnic; addr; num_fes; avoid; version_ok; pool; node } -> (
    let key = (server, Vnic.id_to_int vnic) in
    if find_key v key <> None then (v, [])
    else
      match select v pool ~be_server:server ~exclude:avoid ~count:num_fes ~version_ok () with
      | [] -> (v, [])
      | fes ->
        let v, o =
          add v ~key ~addr ~be_server:server ~fes:[] ~completed_at:None ~repairing:false node
        in
        (v, [ Push { o; fes } ]))
  | Pushed { id; fes = [] } | Retired id -> ({ v with active = Ids.remove id v.active }, [])
  | Pushed { id; fes } -> update v id (fun o -> { o with fes })
  | Activated { id; at } -> update v id (fun o -> { o with completed_at = Some at })
  | Scale_out { id; add; avoid; pool } -> (
    match find v id with
    | Some o when add > 0 ->
      ( v,
        List.map
          (fun server -> Serve_replica { o; server })
          (select v pool ~be_server:o.be_server ~exclude:(avoid @ o.fes) ~count:add ()) )
    | Some _ | None -> (v, []))
  | Joined { id; fes } -> (
    match find v id with
    | Some o when fes <> [] ->
      let o = { o with fes = o.fes @ fes } in
      (put v o, [ Route o ])
    | Some _ | None -> (v, []))
  | Scale_in_server { server; served; now } ->
    let v = hold v server ~until:(now +. (evict_holdoff *. v.cfg.report_interval)) in
    let v, is =
      fold_steps
        (fun v addr ->
          let v, is = fold_steps (drop_fe server) v (with_addr v addr) in
          (v, is @ [ Retire_replica_later { server; addr } ]))
        v served
    in
    (v, is @ [ Unwatch server ])
  | Dead { server; served } ->
    fold_steps
      (fun v addr ->
        (* Unserve before re-provisioning: the refill may re-pick this
           very server once it heals. *)
        let v, is = fold_steps (drop_fe server) v (with_addr v addr) in
        (v, Unserve { server; addr } :: is))
      v served
  | Scale_in_offload { id; remove; pool } -> (
    match find v id with
    | None -> (v, [])
    | Some o ->
      let remove = min remove (List.length o.fes - min_fes) in
      if remove <= 0 then (v, [])
      else begin
        let fact s = pool.candidates.(s) in
        let victims =
          Placement.take remove
            (Placement.evict_order
               ~same_rack:(fun s -> (fact s).rack = pool.be_rack)
               ~load:(fun s -> load v (fact s))
               o.fes)
        in
        let o = { o with fes = List.filter (fun s -> not (List.mem s victims)) o.fes } in
        let v = put v o in
        (* A short re-pick holdoff so the next scale-out doesn't
           immediately re-provision a server just drained. *)
        fold_steps
          (fun v s ->
            let v = hold v s ~until:(pool.now +. (drain_holdoff *. v.cfg.report_interval)) in
            match (fact s).fe_served with
            | None -> (v, [])
            | Some n -> (v, only (n <= 1) (Unwatch s) @ [ Retire_replica_later { server = s; addr = o.addr } ]))
          v victims
        |> fun (v, is) -> (v, Route o :: Readvertise o :: is)
      end)
  | Crashed sid ->
    let hit o = o.be_server = sid || List.mem sid o.fes in
    ({ v with active = Ids.map (fun o -> if hit o then { o with repairing = true } else o) v.active }, [])
  | Restarted { server; fe_unserved; be_closed } ->
    let os = offloads v in
    ( v,
      List.concat_map
        (fun o ->
          only (List.mem server o.fes && List.mem o.id fe_unserved) (Restore_fe { o; server; rpc = false }))
        os
      @ List.concat_map (fun o -> only (o.be_server = server && List.mem o.id be_closed) (Reinstall_be o)) os
    )
  | Fallback id -> update v id (fun o -> { o with falling_back = true })
  | Pin { id; pool } -> (
    match find v id with
    | None -> (v, [])
    | Some o -> (
      match select v pool ~be_server:o.be_server ~exclude:o.fes ~count:1 () with
      | server :: _ -> (v, [ Pin_flow { o; server } ])
      | [] -> (v, [])))
  | Migrate { id; to_server } -> update v id (fun o -> { o with be_server = to_server })
  | Adopt { key; addr; be_server; fes; now; node } ->
    if find_key v key <> None then (v, [])
    else (fst (add v ~key ~addr ~be_server ~fes ~completed_at:(Some now) ~repairing:true node), [])
