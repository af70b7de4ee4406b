(* The SplitMix64 state lives in an 8-byte buffer, not a boxed [int64]
   field: a step reads and writes it unboxed, so stepping allocates
   nothing and a long-lived stream never points at a young box. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = step t

let split t = of_state (mix64 (step t))

let copy t = Bytes.copy t

(* Positive 62-bit int from the top bits, avoiding sign issues. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection to avoid modulo bias. *)
  let mask_range = max_int / n * n in
  let v = ref (bits t) in
  while !v >= mask_range do
    v := bits t
  done;
  !v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 11) in
  float_of_int v *. 0x1p-53

let float t x = unit_float t *. x

let bool t = Int64.logand (step t) 1L = 1L

let chance t p =
  if p >= 1.0 then true
  else if p <= 0.0 then false
  else unit_float t < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.pareto: parameters must be positive";
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))

let[@inline] gaussian t ~mean ~stddev =
  let u1 = 1.0 -. unit_float t and u2 = unit_float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

(* Rejection-inversion sampling for the Zipf distribution
   (Hörmann & Derflinger, 1996).  Expected O(1) per draw. *)
let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if s <= 0.0 then invalid_arg "Rng.zipf: s must be positive";
  if n = 1 then 1
  else begin
    let h x = if Float.abs (s -. 1.0) < 1e-9 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x =
      if Float.abs (s -. 1.0) < 1e-9 then exp x
      else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s))
    in
    let hx0 = h 0.5 -. (1.0 /. (0.5 ** s)) in
    let hn = h (float_of_int n +. 0.5) in
    let rec draw () =
      let u = hx0 +. (unit_float t *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > float_of_int n then float_of_int n else k in
      if u >= h (k +. 0.5) -. (1.0 /. (k ** s)) then int_of_float k else draw ()
    in
    draw ()
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
