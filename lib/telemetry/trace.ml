type kind = Stage | Wire | Detail | Mark

type site = Local | Remote

type span = {
  trace : int;
  name : string;
  component : string;
  kind : kind;
  site : site;
  t0 : float;
  dur : float;
  args : (string * string) list;
}

type record = { t_begin : float; mutable t_end : float option }

type t = {
  mutable enabled : bool;
  mutable sample_every : int;
  mutable next : int;  (** packets seen at allocation sites *)
  ring : span array;
  mutable head : int;  (** next write slot *)
  mutable len : int;
  mutable dropped : int;
  traces : (int, record) Hashtbl.t;
  mutable order : int list;  (** begin order, newest first *)
}

let dummy_span =
  { trace = 0; name = ""; component = ""; kind = Mark; site = Local; t0 = 0.0; dur = 0.0; args = [] }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    enabled = false;
    sample_every = 1;
    next = 0;
    ring = Array.make capacity dummy_span;
    head = 0;
    len = 0;
    dropped = 0;
    traces = Hashtbl.create 256;
    order = [];
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let set_sample_every t n =
  if n <= 0 then invalid_arg "Trace.set_sample_every: must be positive";
  t.sample_every <- n

let capacity t = Array.length t.ring

let next_id t =
  if not t.enabled then 0
  else begin
    let n = t.next in
    t.next <- n + 1;
    if n mod t.sample_every = 0 then n + 1 (* ids start at 1; 0 = untraced *)
    else 0
  end

let begin_trace t ~id ~now =
  if t.enabled && id <> 0 && not (Hashtbl.mem t.traces id) then begin
    Hashtbl.replace t.traces id { t_begin = now; t_end = None };
    t.order <- id :: t.order
  end

let end_trace t ~id ~now =
  if t.enabled && id <> 0 then begin
    match Hashtbl.find_opt t.traces id with
    | Some ({ t_end = None; _ } as r) -> r.t_end <- Some now
    | Some { t_end = Some _; _ } | None -> ()
  end

let push t span =
  let cap = Array.length t.ring in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.ring.(t.head) <- span;
  t.head <- (t.head + 1) mod cap

let add_span t ~id ~name ~component ?(kind = Stage) ?(site = Local) ?(args = []) ~t0 ~t1 () =
  if t.enabled && id <> 0 then
    push t { trace = id; name; component; kind; site; t0; dur = t1 -. t0; args }

let mark t ~id ~name ~component ?(args = []) ~now () =
  if t.enabled && id <> 0 then
    push t { trace = id; name; component; kind = Mark; site = Local; t0 = now; dur = 0.0; args }

let span_count t = t.len
let dropped_spans t = t.dropped

(* Oldest-to-newest walk over the live portion of the ring. *)
let iter_spans t f =
  let cap = Array.length t.ring in
  let start = (t.head - t.len + cap) mod cap in
  for i = 0 to t.len - 1 do
    f t.ring.((start + i) mod cap)
  done

let trace_ids t = List.rev t.order

let completed_ids t =
  List.rev
    (List.filter
       (fun id ->
         match Hashtbl.find_opt t.traces id with
         | Some { t_end = Some _; _ } -> true
         | Some _ | None -> false)
       t.order)

let interval t ~id =
  Option.map (fun r -> (r.t_begin, r.t_end)) (Hashtbl.find_opt t.traces id)

let spans_of t ~id =
  let acc = ref [] in
  iter_spans t (fun s -> if s.trace = id then acc := s :: !acc);
  List.stable_sort (fun a b -> compare a.t0 b.t0) (List.rev !acc)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.next <- 0;
  t.order <- [];
  Hashtbl.reset t.traces

type attribution = {
  t_begin : float;
  t_end : float;
  e2e : float;
  local_s : float;
  remote_s : float;
  residual : float;
}

let attribute t ~id =
  match Hashtbl.find_opt t.traces id with
  | Some { t_begin; t_end = Some t_end } ->
    let local_s = ref 0.0 and remote_s = ref 0.0 in
    iter_spans t (fun s ->
        if s.trace = id then begin
          match s.kind with
          | Stage | Wire -> (
            match s.site with
            | Local -> local_s := !local_s +. s.dur
            | Remote -> remote_s := !remote_s +. s.dur)
          | Detail | Mark -> ()
        end);
    let e2e = t_end -. t_begin in
    Some
      {
        t_begin;
        t_end;
        e2e;
        local_s = !local_s;
        remote_s = !remote_s;
        residual = e2e -. !local_s -. !remote_s;
      }
  | Some { t_end = None; _ } | None -> None

let conservation_error t ~id =
  Option.map (fun a -> Float.abs a.residual) (attribute t ~id)

let kind_to_string = function
  | Stage -> "stage"
  | Wire -> "wire"
  | Detail -> "detail"
  | Mark -> "mark"

let site_to_string = function Local -> "local" | Remote -> "remote"

let us x = x *. 1e6

let event_args component args =
  Json.Obj
    (("component", Json.String component)
    :: List.map (fun (k, v) -> (k, Json.String v)) args)

let span_event s =
  match s.kind with
  | Mark ->
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "mark");
        ("ph", Json.String "i");
        ("s", Json.String "t");
        ("ts", Json.Float (us s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.trace);
        ("args", event_args s.component s.args);
      ]
  | Stage | Wire | Detail ->
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String (kind_to_string s.kind ^ "," ^ site_to_string s.site));
        ("ph", Json.String "X");
        ("ts", Json.Float (us s.t0));
        ("dur", Json.Float (us s.dur));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.trace);
        ("args", event_args s.component s.args);
      ]

let to_chrome_json t =
  let events = ref [] in
  iter_spans t (fun s -> events := span_event s :: !events);
  (* Synthetic end-to-end event per completed trace, so viewers show the
     measured latency alongside the tiling stages. *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.traces id with
      | Some { t_begin; t_end = Some t_end } ->
        events :=
          Json.Obj
            [
              ("name", Json.String "e2e");
              ("cat", Json.String "e2e");
              ("ph", Json.String "X");
              ("ts", Json.Float (us t_begin));
              ("dur", Json.Float (us (t_end -. t_begin)));
              ("pid", Json.Int 1);
              ("tid", Json.Int id);
              ("args", Json.Obj []);
            ]
          :: !events
      | Some { t_end = None; _ } | None -> ())
    (trace_ids t);
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
    ]
