(* Host-time ledger for the traced run: spans recorded from the
   benchmark's own files around calls into each layer.

   A span's self time is its duration minus the durations of the spans
   nested inside it, so summing self time over every layer counts each
   nanosecond of the traced window at most once.  Whatever the spans do
   not cover (the stepping loop itself, clock reads) is the unattributed
   remainder.  Spans are aggregated per layer as they close rather than
   kept individually: a traced window closes millions of them. *)

type layer = {
  name : string;
  mutable self_ns : int;
  mutable calls : int;
  mutable pkts : int;  (** packets handed to the layer across all calls *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let layer name = { name; self_ns = 0; calls = 0; pkts = 0 }

(* Open spans: start time and the time already claimed by children. *)
let max_depth = 256
let starts = Array.make max_depth 0
let children = Array.make max_depth 0
let depth = ref 0

let enter () =
  let d = !depth in
  starts.(d) <- now_ns ();
  children.(d) <- 0;
  depth := d + 1

let leave l ~pkts =
  let d = !depth - 1 in
  depth := d;
  let dur = now_ns () - starts.(d) in
  l.self_ns <- l.self_ns + dur - children.(d);
  l.calls <- l.calls + 1;
  l.pkts <- l.pkts + pkts;
  if d > 0 then children.(d - 1) <- children.(d - 1) + dur

let span l ~pkts f =
  enter ();
  let r = f () in
  leave l ~pkts;
  r
