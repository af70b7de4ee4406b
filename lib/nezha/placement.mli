(** FE candidate selection (§4.2.1, App. B.1) as pure orderings, used
    by {!Policy.select} and the SLO ramp
    ([Nezha_workloads.Region_sim.run_slo]).

    Two policies coexist (selectable per controller):

    - {!select} — the paper's ordering: filter to eligible servers
      (capacity ceilings, health, cool-down — the caller's predicate),
      prefer servers in the BE's own rack, within each tier pick the
      least-loaded by reported CPU.
    - {!select_p2c} — power-of-two-choices over a live load signal
      (the caller's; {!Policy.load} is an EWMA of reported utilization
      plus outstanding offloads): draw
      two distinct candidates, keep the less loaded, repeat.  Same-rack
      candidates are preferred while their load stays within 0.15 of
      the global minimum; suspect servers are only ever
      drawn when no healthy candidate remains. *)

open Nezha_engine

type policy = Least_loaded | Power_of_two

val select :
  eligible:('a -> bool) ->
  same_rack:('a -> bool) ->
  cpu:('a -> float) ->
  count:int ->
  'a list ->
  'a list
(** [select ~eligible ~same_rack ~cpu ~count servers] returns up to
    [count] servers: eligible ones in the BE's rack ordered by [cpu]
    ascending, then eligible others likewise. *)

val select_p2c :
  rng:Rng.t ->
  eligible:('a -> bool) ->
  same_rack:('a -> bool) ->
  load:('a -> float) ->
  suspect:('a -> bool) ->
  count:int ->
  'a list ->
  'a list
(** [select_p2c ~rng ~eligible ~same_rack ~load ~suspect ~count servers]
    picks up to [count] distinct servers by power-of-two-choices over
    [load].  The draw pool is tiered: same-rack healthy candidates whose
    load is within 0.15 of the lowest load among healthy candidates come
    first, then all remaining healthy candidates, and [suspect] servers
    only when both tiers are exhausted — a suspect is never chosen while
    a healthy candidate exists.  Each pick draws two distinct candidates from the current
    tier and keeps the less loaded (ties: the first drawn), then removes
    it from the pool.  Deterministic for a given [rng] state. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (all of them if fewer). *)

val evict_order : same_rack:('a -> bool) -> load:('a -> float) -> 'a list -> 'a list
(** Scale-in victim ranking: servers outside the BE's rack first, then
    by [load] descending; a stable sort, so ties keep their input
    order. *)
