(* FE candidate ordering (§4.2.1, App. B.1), used by [Policy.select]
   and the SLO ramp.  Two policies: the paper's least-loaded ordering
   with same-ToR preference, and power-of-two-choices over a live load
   signal (DESIGN.md §15). *)

open Nezha_engine

type policy = Least_loaded | Power_of_two

let rec take n = function
  | [] -> []
  | _ :: _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let select ~eligible ~same_rack ~cpu ~count servers =
  let candidates = List.filter eligible servers in
  let near, far = List.partition same_rack candidates in
  (* [cpu] is read once per server, not once per comparison. *)
  let by_cpu l =
    List.map snd (List.sort (fun (a, _) (b, _) -> Float.compare a b) (List.map (fun s -> (cpu s, s)) l))
  in
  take count (by_cpu near @ by_cpu far)

(* Power-of-two-choices: draw two distinct candidates, keep the less
   loaded.  The classic result (Mitzenmacher) is that two random probes
   get exponentially better max-load than one while staying O(1) per
   decision — no global sort, no herd behaviour when every BE chases
   the same least-loaded server. *)
let p2c_pick ~rng ~load pool ~n =
  if n = 1 then 0
  else begin
    let i = Rng.int rng n in
    let j =
      let j = Rng.int rng (n - 1) in
      if j >= i then j + 1 else j
    in
    if load pool.(j) < load pool.(i) then j else i
  end

let drain ~rng ~load pool count =
  (* Repeated p2c picks without replacement: swap the winner to the
     tail and shrink the live prefix. *)
  let pool = Array.of_list pool in
  let live = ref (Array.length pool) in
  let picked = ref [] in
  let remaining = ref count in
  while !remaining > 0 && !live > 0 do
    let w = p2c_pick ~rng ~load pool ~n:!live in
    picked := pool.(w) :: !picked;
    live := !live - 1;
    pool.(w) <- pool.(!live);
    decr remaining
  done;
  List.rev !picked

(* How far above the least-loaded healthy candidate a same-rack one may
   be and still keep its locality preference. *)
let load_band = 0.15

let select_p2c ~rng ~eligible ~same_rack ~load ~suspect ~count servers =
  let candidates = List.filter eligible servers in
  let healthy, suspects = List.partition (fun s -> not (suspect s)) candidates in
  let min_load =
    List.fold_left (fun acc s -> Float.min acc (load s)) infinity healthy
  in
  (* App. B.1: stay in-rack while the local candidates are competitive;
     an overloaded rack must not capture placement just by proximity. *)
  let near, far =
    List.partition
      (fun s -> same_rack s && load s <= min_load +. load_band)
      healthy
  in
  let rec fill acc count = function
    | [] -> List.rev acc
    | _ when count = 0 -> List.rev acc
    | tier :: rest ->
        let picked = drain ~rng ~load tier count in
        fill (List.rev_append picked acc) (count - List.length picked) rest
  in
  fill [] count [ near; far; suspects ]

(* Scale-in victims: cross-rack FEs first (App. B.1 preference in
   reverse), then the most loaded — free the busiest servers for their
   own local traffic. *)
let evict_order ~same_rack ~load servers =
  let rack s = if same_rack s then 1 else 0 in
  List.stable_sort
    (fun a b ->
      match compare (rack a) (rack b) with 0 -> Float.compare (load b) (load a) | c -> c)
    servers
