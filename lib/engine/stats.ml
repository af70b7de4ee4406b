module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let check_p p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]"

let percentile samples p =
  if Array.length samples = 0 then invalid_arg "Stats.percentile: empty samples";
  check_p p;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  percentile_sorted sorted p

let percentiles samples ps =
  if Array.length samples = 0 then invalid_arg "Stats.percentiles: empty samples";
  List.iter check_p ps;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.map (fun p -> (p, percentile_sorted sorted p)) ps

let nearest_rank n p =
  if n < 1 then invalid_arg "Stats.nearest_rank: no samples";
  check_p p;
  let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) i)

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let stddev samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 samples in
    sqrt (ss /. float_of_int (n - 1))
  end

module Histogram = struct
  (* The running sums sit in an all-float record, so recording a value
     stores unboxed doubles: no allocation and no write barrier. *)
  type sums = { mutable total : float; mutable min_v : float; mutable max_v : float }

  (* Values are mapped to buckets on a log scale: bucket index =
     floor (log_base value) shifted so that sub-1.0 values share bucket 0
     region.  With [significant_digits] = d, the base is chosen so relative
     error <= 10^-d.  Values below [tiny] all land in bucket 0. *)
  type t = {
    base_log : float; (* log of bucket growth factor *)
    tiny : float; (* values below this collapse into bucket 0 *)
    mutable counts : int array;
    mutable count : int;
    sums : sums;
  }

  let create ?(significant_digits = 2) () =
    let digits = max 1 (min 5 significant_digits) in
    let growth = 1.0 +. (10.0 ** float_of_int (-digits)) in
    {
      base_log = log growth;
      tiny = 1e-12;
      counts = Array.make 256 0;
      count = 0;
      sums = { total = 0.0; min_v = infinity; max_v = neg_infinity };
    }

  let bucket_of t v =
    if v <= t.tiny then 0
    else 1 + int_of_float (Float.floor (log (v /. t.tiny) /. t.base_log))

  let value_of t i =
    if i = 0 then 0.0
    else t.tiny *. exp ((float_of_int (i - 1) +. 0.5) *. t.base_log)

  let ensure t i =
    let cap = Array.length t.counts in
    if i >= cap then begin
      let ncap = max (i + 1) (cap * 2) in
      let ncounts = Array.make ncap 0 in
      Array.blit t.counts 0 ncounts 0 cap;
      t.counts <- ncounts
    end

  let record_n t v n =
    let v = if v < 0.0 then 0.0 else v in
    let i = bucket_of t v in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + n;
    t.count <- t.count + n;
    let s = t.sums in
    s.total <- s.total +. (v *. float_of_int n);
    if v < s.min_v then s.min_v <- v;
    if v > s.max_v then s.max_v <- v

  let record t v = record_n t v 1

  let count t = t.count
  let total t = t.sums.total
  let mean t = if t.count = 0 then 0.0 else t.sums.total /. float_of_int t.count
  let min_value t = if t.count = 0 then 0.0 else t.sums.min_v
  let max_value t = if t.count = 0 then 0.0 else t.sums.max_v

  let percentile t p =
    check_p p;
    if t.count = 0 then 0.0
    else begin
      (* The bucket holding the nearest-rank sample (1-based). *)
      let target = nearest_rank t.count p + 1 in
      let rec scan i acc =
        if i >= Array.length t.counts then t.sums.max_v
        else begin
          let acc = acc + t.counts.(i) in
          if acc >= target then begin
            let v = value_of t i in
            (* Clamp the bucket midpoint estimate into the observed range. *)
            Float.min t.sums.max_v (Float.max t.sums.min_v v)
          end
          else scan (i + 1) acc
        end
      in
      scan 0 0
    end

  let merge_into ~dst ~src =
    Array.iteri
      (fun i n -> if n > 0 then begin
         ensure dst i;
         dst.counts.(i) <- dst.counts.(i) + n
       end)
      src.counts;
    dst.count <- dst.count + src.count;
    let d = dst.sums and s = src.sums in
    d.total <- d.total +. s.total;
    if src.count > 0 then begin
      if s.min_v < d.min_v then d.min_v <- s.min_v;
      if s.max_v > d.max_v then d.max_v <- s.max_v
    end

  let reset t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.count <- 0;
    let s = t.sums in
    s.total <- 0.0;
    s.min_v <- infinity;
    s.max_v <- neg_infinity

  let pp_summary ppf t =
    if t.count = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf
        "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g p999=%.4g p9999=%.4g max=%.4g"
        t.count (mean t) (percentile t 50.0) (percentile t 90.0)
        (percentile t 99.0) (percentile t 99.9) (percentile t 99.99)
        (max_value t)
end

module Series = struct
  type t = {
    name : string;
    mutable times : float array;
    mutable values : float array;
    mutable len : int;
  }

  let create ~name = { name; times = [||]; values = [||]; len = 0 }

  let add t ~time v =
    let cap = Array.length t.times in
    if t.len = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let nt = Array.make ncap 0.0 and nv = Array.make ncap 0.0 in
      Array.blit t.times 0 nt 0 t.len;
      Array.blit t.values 0 nv 0 t.len;
      t.times <- nt;
      t.values <- nv
    end;
    t.times.(t.len) <- time;
    t.values.(t.len) <- v;
    t.len <- t.len + 1

  let name t = t.name
  let length t = t.len

  let points t = Array.init t.len (fun i -> (t.times.(i), t.values.(i)))

  let last t =
    if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

  let pp_table ?(limit = 50) ppf t =
    Format.fprintf ppf "@[<v># %s@," t.name;
    if t.len > 0 then begin
      let stride = max 1 (t.len / limit) in
      let rec rows i =
        if i < t.len then begin
          Format.fprintf ppf "%12.6f  %14.6g@," t.times.(i) t.values.(i);
          rows (i + stride)
        end
      in
      rows 0
    end;
    Format.fprintf ppf "@]"
end
