open Nezha_net

type tcp_phase = Establishing | Established | Closing

let pp_tcp_phase ppf p =
  Format.pp_print_string ppf
    (match p with Establishing -> "establishing" | Established -> "established" | Closing -> "closing")

type stats_counters = { packets : int; bytes : int }

type t = {
  first_dir : Packet.direction;
  tcp : tcp_phase option;
  decap_src : Ipv4.t option;
  stats : stats_counters option;
}

let init ~first_dir ?tcp () = { first_dir; tcp; decap_src = None; stats = None }

let is_establishing t = match t.tcp with Some Establishing -> true | Some _ | None -> false

let equal_tcp a b =
  match (a, b) with
  | None, None -> true
  | Some (x : tcp_phase), Some y -> x = y (* an immediate type: an int compare *)
  | None, Some _ | Some _, None -> false

let equal_decap a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Ipv4.equal x y
  | None, Some _ | Some _, None -> false

let equal_stats a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Int.equal x.packets y.packets && Int.equal x.bytes y.bytes
  | None, Some _ | Some _, None -> false

let equal a b =
  (a.first_dir : Packet.direction) = b.first_dir
  && equal_tcp a.tcp b.tcp && equal_decap a.decap_src b.decap_src && equal_stats a.stats b.stats

let pp ppf t =
  Format.fprintf ppf "state{first=%a%s%s%s}" Packet.pp_direction t.first_dir
    (match t.tcp with Some p -> Format.asprintf " tcp=%a" pp_tcp_phase p | None -> "")
    (match t.decap_src with Some s -> " decap_src=" ^ Ipv4.to_string s | None -> "")
    (match t.stats with
    | Some s -> Printf.sprintf " stats=%dp/%dB" s.packets s.bytes
    | None -> "")

let tcp_tag = function Establishing -> 1 | Established -> 2 | Closing -> 3

let tcp_of_tag = function
  | 1 -> Some Establishing
  | 2 -> Some Established
  | 3 -> Some Closing
  | _ -> None

let encode t =
  let w = Wire.Writer.create ~capacity:16 () in
  let flags =
    (match t.first_dir with Packet.Tx -> 0 | Packet.Rx -> 1)
    lor (match t.tcp with Some p -> tcp_tag p lsl 1 | None -> 0)
    lor (match t.decap_src with Some _ -> 8 | None -> 0)
    lor (match t.stats with Some _ -> 16 | None -> 0)
  in
  Wire.Writer.u8 w flags;
  (match t.decap_src with Some s -> Wire.Writer.u32 w (Ipv4.to_int32 s) | None -> ());
  (match t.stats with
  | Some s ->
    Wire.Writer.varint w s.packets;
    Wire.Writer.varint w s.bytes
  | None -> ());
  Wire.Writer.contents w

let decode buf =
  let r = Wire.Reader.of_bytes buf in
  match
    let flags = Wire.Reader.u8 r in
    let first_dir = if flags land 1 = 0 then Packet.Tx else Packet.Rx in
    let tcp = tcp_of_tag ((flags lsr 1) land 3) in
    let decap_src =
      if flags land 8 <> 0 then Some (Ipv4.of_int32 (Wire.Reader.u32 r)) else None
    in
    let stats =
      if flags land 16 <> 0 then begin
        let packets = Wire.Reader.varint r in
        let bytes = Wire.Reader.varint r in
        Some { packets; bytes }
      end
      else None
    in
    Ok { first_dir; tcp; decap_src; stats }
  with
  | result -> result
  | exception Wire.Reader.Truncated -> Error "truncated state blob"

let size_bytes t = Bytes.length (encode t)
