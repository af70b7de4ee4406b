(* Every field is a float, so the record is stored flat: a [take]
   writes [tokens] and [last] as unboxed doubles and allocates nothing.
   A non-float field here would box both on every packet. *)
type t = {
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate_bytes_per_s ~burst_bytes =
  if rate_bytes_per_s <= 0.0 || burst_bytes <= 0.0 then
    invalid_arg "Token_bucket.create: rate and burst must be positive";
  { rate = rate_bytes_per_s; burst = burst_bytes; tokens = burst_bytes; last = 0.0 }

let refill t ~now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

let take t ~now ~bytes =
  refill t ~now;
  let need = float_of_int bytes in
  if t.tokens >= need then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let available t ~now =
  refill t ~now;
  t.tokens

let rate t = t.rate
let burst t = t.burst
