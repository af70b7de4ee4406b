(* Tests for LPM, ACL and the aging flow table. *)

open Nezha_net
open Nezha_tables

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ip = Ipv4.of_string_exn
let pfx s = Option.get (Ipv4.Prefix.of_string s)

(* ------------------------------------------------------------------ *)
(* Lpm *)

let test_lpm_longest_wins () =
  let t = Lpm.create () in
  Lpm.insert t (pfx "10.0.0.0/8") "coarse";
  Lpm.insert t (pfx "10.1.0.0/16") "mid";
  Lpm.insert t (pfx "10.1.2.0/24") "fine";
  (match Lpm.lookup t (ip "10.1.2.3") with
  | Some (p, v) ->
    check_str "longest" "fine" v;
    check_int "len 24" 24 (Ipv4.Prefix.length p)
  | None -> Alcotest.fail "expected match");
  (match Lpm.lookup t (ip "10.1.9.9") with
  | Some (_, v) -> check_str "mid" "mid" v
  | None -> Alcotest.fail "expected match");
  (match Lpm.lookup t (ip "10.200.0.1") with
  | Some (_, v) -> check_str "coarse" "coarse" v
  | None -> Alcotest.fail "expected match");
  check_bool "no match outside" true (Lpm.lookup t (ip "11.0.0.1") = None)

let test_lpm_default_route () =
  let t = Lpm.create () in
  Lpm.insert t (pfx "0.0.0.0/0") "default";
  (match Lpm.lookup t (ip "203.0.113.7") with
  | Some (_, v) -> check_str "default" "default" v
  | None -> Alcotest.fail "default route must match everything")

let test_lpm_replace_and_remove () =
  let t = Lpm.create () in
  Lpm.insert t (pfx "10.0.0.0/8") 1;
  Lpm.insert t (pfx "10.0.0.0/8") 2;
  check_int "replace keeps one entry" 1 (Lpm.length t);
  check_bool "exact" true (Lpm.find_exact t (pfx "10.0.0.0/8") = Some 2);
  check_bool "removed" true (Lpm.remove t (pfx "10.0.0.0/8"));
  check_bool "remove again" false (Lpm.remove t (pfx "10.0.0.0/8"));
  check_int "empty" 0 (Lpm.length t);
  check_bool "lookup misses" true (Lpm.lookup t (ip "10.1.1.1") = None)

let test_lpm_host_route () =
  let t = Lpm.create () in
  Lpm.insert t (pfx "10.0.0.1/32") "host";
  Lpm.insert t (pfx "10.0.0.0/24") "net";
  (match Lpm.lookup t (ip "10.0.0.1") with
  | Some (_, v) -> check_str "host wins" "host" v
  | None -> Alcotest.fail "expected host route");
  match Lpm.lookup t (ip "10.0.0.2") with
  | Some (_, v) -> check_str "net for others" "net" v
  | None -> Alcotest.fail "expected net route"

let test_lpm_depth_cost () =
  let t = Lpm.create () in
  Lpm.insert t (pfx "10.0.0.0/24") "x";
  let _, depth = Lpm.lookup_with_depth t (ip "10.0.0.1") in
  check_int "visits 24 levels" 24 depth;
  let _, depth_miss = Lpm.lookup_with_depth t (ip "192.168.0.1") in
  check_bool "miss stops early" true (depth_miss < 24)

let test_lpm_memory_grows () =
  let t = Lpm.create () in
  let m0 = Lpm.memory_bytes t in
  Lpm.insert t (pfx "10.0.0.0/8") ();
  let m1 = Lpm.memory_bytes t in
  check_bool "memory grows" true (m1 > m0);
  ignore (Lpm.remove t (pfx "10.0.0.0/8") : bool);
  check_int "memory returns after prune" m0 (Lpm.memory_bytes t)

let test_lpm_iter_reconstructs () =
  let t = Lpm.create () in
  let prefixes = [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.2.0/24"; "192.168.1.128/25"; "1.2.3.4/32" ] in
  List.iter (fun s -> Lpm.insert t (pfx s) s) prefixes;
  let seen = ref [] in
  Lpm.iter t (fun p v ->
      check_str "prefix matches payload" v (Ipv4.Prefix.to_string p);
      seen := v :: !seen);
  check_int "all seen" (List.length prefixes) (List.length !seen)

let prop_lpm_lookup_member =
  let gen =
    QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound 0xFFFFFF) (int_range 1 32)))
  in
  QCheck.Test.make ~name:"lpm result always contains the address" ~count:200 (QCheck.make gen)
    (fun specs ->
      let t = Lpm.create () in
      List.iter
        (fun (raw, len) ->
          Lpm.insert t (Ipv4.Prefix.make (Ipv4.of_int32 (Int32.of_int (raw * 1299721))) len) ())
        specs;
      List.for_all
        (fun (raw, _) ->
          let addr = Ipv4.of_int32 (Int32.of_int (raw * 1299721)) in
          match Lpm.lookup t addr with
          | None -> true
          | Some (p, ()) -> Ipv4.Prefix.mem addr p)
        specs)

(* ------------------------------------------------------------------ *)
(* Acl *)

let tuple ?(sport = 40000) ?(dport = 80) ?(proto = Five_tuple.Tcp) src dst =
  Five_tuple.make ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport ~proto

let test_acl_priority_order () =
  let t = Acl.create ~default:Acl.Deny () in
  Acl.add t (Acl.rule ~priority:10 ~src:(pfx "10.0.0.0/8") Acl.Deny);
  Acl.add t (Acl.rule ~priority:5 ~src:(pfx "10.1.0.0/16") Acl.Permit);
  let v = Acl.lookup t (tuple "10.1.0.5" "8.8.8.8") in
  check_bool "more specific priority wins" true (v.Acl.action = Acl.Permit);
  check_int "scanned 1" 1 v.Acl.rules_scanned;
  let v2 = Acl.lookup t (tuple "10.9.0.5" "8.8.8.8") in
  check_bool "falls to deny" true (v2.Acl.action = Acl.Deny);
  check_int "scanned both" 2 v2.Acl.rules_scanned

let test_acl_default () =
  let t = Acl.create () in
  let v = Acl.lookup t (tuple "1.1.1.1" "2.2.2.2") in
  check_bool "default permit" true (v.Acl.action = Acl.Permit);
  check_int "scanned none" 0 v.Acl.rules_scanned;
  check_bool "no match" true (v.Acl.matched = None)

let test_acl_port_and_proto_match () =
  let t = Acl.create ~default:Acl.Deny () in
  Acl.add t (Acl.rule ~priority:1 ~dst_ports:(80, 443) ~proto:Five_tuple.Tcp Acl.Permit);
  check_bool "tcp 80 permitted" true
    ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2" ~dport:80)).Acl.action = Acl.Permit);
  check_bool "tcp 443 permitted" true
    ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2" ~dport:443)).Acl.action = Acl.Permit);
  check_bool "tcp 8080 denied" true
    ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2" ~dport:8080)).Acl.action = Acl.Deny);
  check_bool "udp 80 denied" true
    ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2" ~dport:80 ~proto:Five_tuple.Udp)).Acl.action
    = Acl.Deny)

let test_acl_scan_cost_grows () =
  let t = Acl.create () in
  for i = 1 to 100 do
    Acl.add t (Acl.rule ~priority:i ~src:(pfx "172.16.0.0/12") Acl.Deny)
  done;
  let v = Acl.lookup t (tuple "10.0.0.1" "10.0.0.2") in
  check_int "scans all on miss" 100 v.Acl.rules_scanned;
  check_int "rule count" 100 (Acl.rule_count t);
  check_bool "memory proportional" true (Acl.memory_bytes t = 100 * 48)

let test_acl_remove () =
  let t = Acl.create ~default:Acl.Deny () in
  Acl.add t (Acl.rule ~priority:1 Acl.Permit);
  check_bool "removed" true (Acl.remove t ~priority:1);
  check_bool "gone" false (Acl.remove t ~priority:1);
  check_bool "deny now" true ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2")).Acl.action = Acl.Deny)

let test_acl_stable_same_priority () =
  let t = Acl.create () in
  Acl.add t (Acl.rule ~priority:1 ~proto:Five_tuple.Tcp Acl.Deny);
  Acl.add t (Acl.rule ~priority:1 ~proto:Five_tuple.Tcp Acl.Permit);
  (* First-added wins at equal priority. *)
  check_bool "first added wins" true
    ((Acl.lookup t (tuple "1.1.1.1" "2.2.2.2")).Acl.action = Acl.Deny)

(* ------------------------------------------------------------------ *)
(* Flow_table *)

let key ?(vpc = 1) ?(sport = 1000) src dst =
  Flow_key.of_packet_fields ~vpc:(Vpc.make vpc) ~flow:(tuple src dst ~sport)

let mk_table ?capacity_bytes ?(aging = 8.0) () =
  Flow_table.create ?capacity_bytes ~entry_overhead:100 ~value_bytes:String.length
    ~default_aging:aging ()

let test_ft_insert_find () =
  let t = mk_table () in
  let k = key "10.0.0.1" "10.0.0.2" in
  check_bool "insert" true (Flow_table.insert t ~now:0.0 k "v1" = Ok ());
  check_bool "find" true (Flow_table.find t k = Some "v1");
  check_int "length" 1 (Flow_table.length t);
  check_int "memory 100+2" 102 (Flow_table.memory_bytes t)

let test_ft_bidirectional_key () =
  let t = mk_table () in
  let fwd = tuple "10.0.0.9" "10.0.0.2" ~sport:5555 ~dport:80 in
  let k1 = Flow_key.of_packet_fields ~vpc:(Vpc.make 1) ~flow:fwd in
  let k2 = Flow_key.of_packet_fields ~vpc:(Vpc.make 1) ~flow:(Five_tuple.reverse fwd) in
  ignore (Flow_table.insert t ~now:0.0 k1 "session" : Admission.t);
  check_bool "reverse direction finds same entry" true (Flow_table.find t k2 = Some "session")

let test_ft_vpc_isolation () =
  let t = mk_table () in
  let k1 = key ~vpc:1 "10.0.0.1" "10.0.0.2" in
  let k2 = key ~vpc:2 "10.0.0.1" "10.0.0.2" in
  ignore (Flow_table.insert t ~now:0.0 k1 "tenant1" : Admission.t);
  check_bool "other tenant misses" true (Flow_table.find t k2 = None)

let test_ft_capacity () =
  let t = mk_table ~capacity_bytes:250 () in
  check_bool "first fits" true (Flow_table.insert t ~now:0.0 (key "1.1.1.1" "2.2.2.2") "xx" = Ok ());
  check_bool "second fits" true (Flow_table.insert t ~now:0.0 (key "1.1.1.3" "2.2.2.2") "xx" = Ok ());
  check_bool "third rejected" true
    (Flow_table.insert t ~now:0.0 (key "1.1.1.5" "2.2.2.2") "xx" = Error `Table_full);
  check_int "two entries" 2 (Flow_table.length t)

let test_ft_replace_updates_memory () =
  let t = mk_table () in
  let k = key "1.1.1.1" "2.2.2.2" in
  ignore (Flow_table.insert t ~now:0.0 k "ab" : Admission.t);
  ignore (Flow_table.insert t ~now:0.0 k "abcdef" : Admission.t);
  check_int "one entry" 1 (Flow_table.length t);
  check_int "memory reflects new size" 106 (Flow_table.memory_bytes t)

let test_ft_aging () =
  let t = mk_table ~aging:8.0 () in
  let k = key "1.1.1.1" "2.2.2.2" in
  ignore (Flow_table.insert t ~now:0.0 k "v" : Admission.t);
  let expired = ref [] in
  let n = Flow_table.expire t ~now:4.0 ~on_expire:(fun k' _ -> expired := k' :: !expired) in
  check_int "alive at 4s" 0 n;
  let n = Flow_table.expire t ~now:10.0 ~on_expire:(fun k' _ -> expired := k' :: !expired) in
  check_int "expired after 8s idle" 1 n;
  check_bool "callback saw key" true (match !expired with [ k' ] -> Flow_key.equal k k' | _ -> false);
  check_int "gone" 0 (Flow_table.length t);
  check_int "memory reclaimed" 0 (Flow_table.memory_bytes t)

let test_ft_touch_extends () =
  let t = mk_table ~aging:8.0 () in
  let k = key "1.1.1.1" "2.2.2.2" in
  ignore (Flow_table.insert t ~now:0.0 k "v" : Admission.t);
  ignore (Flow_table.expire t ~now:6.0 ~on_expire:(fun _ _ -> ()) : int);
  check_bool "touch" true (Flow_table.touch t ~now:6.0 k);
  let n = Flow_table.expire t ~now:10.0 ~on_expire:(fun _ _ -> ()) in
  check_int "survives original deadline" 0 n;
  let n = Flow_table.expire t ~now:15.0 ~on_expire:(fun _ _ -> ()) in
  check_int "expires at refreshed deadline" 1 n

let test_ft_short_aging_override () =
  (* The SYN-flood defence: states of sessions still establishing get a
     much shorter aging time (§7.3). *)
  let t = mk_table ~aging:8.0 () in
  let syn_k = key "1.1.1.1" "2.2.2.2" in
  let est_k = key "3.3.3.3" "4.4.4.4" in
  ignore (Flow_table.insert t ~now:0.0 ~aging:2.0 syn_k "syn" : Admission.t);
  ignore (Flow_table.insert t ~now:0.0 est_k "established" : Admission.t);
  let n = Flow_table.expire t ~now:3.0 ~on_expire:(fun _ _ -> ()) in
  check_int "syn entry gone early" 1 n;
  check_bool "established survives" true (Flow_table.find t est_k = Some "established")

let test_ft_remove () =
  let t = mk_table () in
  let k = key "1.1.1.1" "2.2.2.2" in
  ignore (Flow_table.insert t ~now:0.0 k "v" : Admission.t);
  check_bool "removed" true (Flow_table.remove t k);
  check_bool "again" false (Flow_table.remove t k);
  check_int "memory zero" 0 (Flow_table.memory_bytes t);
  (* The cancelled timer must not fire. *)
  let n = Flow_table.expire t ~now:20.0 ~on_expire:(fun _ _ -> Alcotest.fail "stale fire") in
  check_int "no expiries" 0 n

let test_ft_update () =
  let t = mk_table () in
  let k = key "1.1.1.1" "2.2.2.2" in
  ignore (Flow_table.insert t ~now:0.0 k "a" : Admission.t);
  check_bool "update" true (Flow_table.update t ~now:1.0 k (fun v -> v ^ "b"));
  check_bool "new value" true (Flow_table.find t k = Some "ab");
  check_int "memory tracks growth" 102 (Flow_table.memory_bytes t);
  check_bool "missing update" false (Flow_table.update t ~now:1.0 (key "9.9.9.9" "8.8.8.8") Fun.id)

let prop_ft_memory_consistent =
  let gen = QCheck.Gen.(list_size (int_range 1 100) (pair (int_bound 1000) (int_bound 20))) in
  QCheck.Test.make ~name:"flow table memory equals sum of live entries" ~count:100
    (QCheck.make gen) (fun ops ->
      let t =
        Flow_table.create ~entry_overhead:10 ~value_bytes:Fun.id ~default_aging:5.0 ()
      in
      List.iter
        (fun (n, sz) ->
          let k = key "10.0.0.1" "10.0.0.2" ~sport:(1000 + (n mod 50)) in
          if n mod 3 = 0 then ignore (Flow_table.remove t k : bool)
          else ignore (Flow_table.insert t ~now:0.0 k sz : Admission.t))
        ops;
      let sum = ref 0 in
      Flow_table.iter t (fun _ sz -> sum := !sum + 10 + sz);
      !sum = Flow_table.memory_bytes t)


(* ------------------------------------------------------------------ *)
(* Tss: tuple-space search classifier *)

let random_rule rng i =
  let module R = Nezha_engine.Rng in
  let prefix () =
    if R.chance rng 0.3 then None
    else begin
      let base = Ipv4.of_octets (R.int rng 256) (R.int rng 256) 0 0 in
      Some (Ipv4.Prefix.make base (8 + (8 * R.int rng 3)))
    end
  in
  let ports () =
    if R.chance rng 0.7 then None
    else begin
      let lo = R.int rng 60000 in
      Some (lo, lo + R.int rng 2000)
    end
  in
  Acl.rule ~priority:(R.int rng 50) ?src:(prefix ()) ?dst:(prefix ()) ?src_ports:(ports ())
    ?dst_ports:(ports ())
    ?proto:(if R.chance rng 0.5 then Some Five_tuple.Tcp else None)
    (if i mod 2 = 0 then Acl.Permit else Acl.Deny)

let random_tuple rng =
  let module R = Nezha_engine.Rng in
  Five_tuple.make
    ~src:(Ipv4.of_octets (R.int rng 256) (R.int rng 256) (R.int rng 256) (R.int rng 256))
    ~dst:(Ipv4.of_octets (R.int rng 256) (R.int rng 256) (R.int rng 256) (R.int rng 256))
    ~src_port:(R.int rng 65536) ~dst_port:(R.int rng 65536)
    ~proto:(if R.bool rng then Five_tuple.Tcp else Five_tuple.Udp)

let test_tss_matches_acl () =
  (* Functional equivalence with the linear-scan ACL over random rule
     sets and packets. *)
  let rng = Nezha_engine.Rng.create 31 in
  for _trial = 1 to 20 do
    let acl = Acl.create ~default:Acl.Deny () in
    let tss = Tss.create ~default:Acl.Deny () in
    for i = 1 to 60 do
      let r = random_rule rng i in
      Acl.add acl r;
      Tss.add tss r
    done;
    for _ = 1 to 200 do
      let t5 = random_tuple rng in
      let a = (Acl.lookup acl t5).Acl.action in
      let b = (Tss.lookup tss t5).Tss.action in
      check_bool "same verdict" true (a = b)
    done
  done

let test_tss_sublinear_probes () =
  (* 1000 rules drawn from a handful of mask shapes: lookups probe the
     tuple count, not the rule count — the Table A1 sub-linearity. *)
  let tss = Tss.create () in
  for i = 1 to 1000 do
    Tss.add tss
      (Acl.rule ~priority:i
         ~src:(Ipv4.Prefix.make (Ipv4.of_octets (i mod 250) 16 0 0) 16)
         ~proto:Five_tuple.Tcp Acl.Deny)
  done;
  check_int "rules stored" 1000 (Tss.rule_count tss);
  check_bool "few tuples" true (Tss.tuple_count tss <= 4);
  let v = Tss.lookup tss (tuple "10.0.0.1" "10.0.0.2") in
  check_bool "probes = tuples, not rules" true (v.Tss.tuples_probed <= 4);
  check_bool "tiny bucket scans" true (v.Tss.bucket_scans <= 8)

let test_tss_priority_and_ties () =
  let tss = Tss.create () in
  Tss.add tss (Acl.rule ~priority:10 ~proto:Five_tuple.Tcp Acl.Deny);
  Tss.add tss (Acl.rule ~priority:5 ~src:(pfx "10.0.0.0/8") Acl.Permit);
  let v = Tss.lookup tss (tuple "10.1.1.1" "8.8.8.8") in
  check_bool "lower priority number wins across tuples" true (v.Tss.action = Acl.Permit);
  (* Equal priority: first-added wins, like Acl. *)
  let tss2 = Tss.create () in
  Tss.add tss2 (Acl.rule ~priority:1 ~proto:Five_tuple.Tcp Acl.Deny);
  Tss.add tss2 (Acl.rule ~priority:1 ~proto:Five_tuple.Tcp Acl.Permit);
  check_bool "stable tie-break" true
    ((Tss.lookup tss2 (tuple "1.1.1.1" "2.2.2.2")).Tss.action = Acl.Deny)

let test_tss_remove () =
  let tss = Tss.create ~default:Acl.Deny () in
  Tss.add tss (Acl.rule ~priority:1 Acl.Permit);
  check_bool "removed" true (Tss.remove tss ~priority:1);
  check_bool "gone" false (Tss.remove tss ~priority:1);
  check_int "count" 0 (Tss.rule_count tss);
  check_bool "default now" true
    ((Tss.lookup tss (tuple "1.1.1.1" "2.2.2.2")).Tss.action = Acl.Deny)

let test_tss_clear () =
  let tss = Tss.create ~default:Acl.Deny () in
  for i = 1 to 40 do
    Tss.add tss (Acl.rule ~priority:i ~src:(pfx "10.0.0.0/8") Acl.Permit)
  done;
  Tss.clear tss;
  check_int "no rules" 0 (Tss.rule_count tss);
  check_int "no tuples" 0 (Tss.tuple_count tss);
  check_int "no memory" 0 (Tss.memory_bytes tss);
  let v = Tss.lookup tss (tuple "10.1.1.1" "2.2.2.2") in
  check_bool "default after clear" true (v.Tss.action = Acl.Deny);
  check_int "nothing probed" 0 v.Tss.tuples_probed

let test_tss_memory_accounting () =
  let tss = Tss.create () in
  let base = Tss.memory_bytes tss in
  check_int "empty costs nothing" 0 base;
  Tss.add tss (Acl.rule ~priority:1 ~src:(pfx "10.0.0.0/8") Acl.Deny);
  let one = Tss.memory_bytes tss in
  check_bool "rule + tuple accounted" true (one > 0);
  (* Same shape: only the per-rule share grows, no new tuple. *)
  Tss.add tss (Acl.rule ~priority:2 ~src:(pfx "20.0.0.0/8") Acl.Deny);
  let two = Tss.memory_bytes tss in
  check_bool "same-shape rule cheaper than first" true (two - one < one);
  (* New shape: strictly more than another same-shape rule. *)
  Tss.add tss (Acl.rule ~priority:3 ~proto:Five_tuple.Tcp Acl.Deny);
  let three = Tss.memory_bytes tss in
  check_bool "new shape costs a tuple" true (three - two > two - one);
  ignore (Tss.remove tss ~priority:3 : bool);
  check_bool "remove shrinks" true (Tss.memory_bytes tss < three)

(* Verdicts (action AND matched rule) must be identical to the
   linear-scan oracle — rule identity matters because pre-actions are
   derived from the matched rule. *)
let prop_tss_equivalent =
  QCheck.Test.make ~name:"tss and acl agree on every packet" ~count:60
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 80)))
    (fun (seed, nrules) ->
      let rng = Nezha_engine.Rng.create seed in
      let acl = Acl.create () and tss = Tss.create () in
      for i = 1 to nrules do
        let r = random_rule rng i in
        Acl.add acl r;
        Tss.add tss r
      done;
      let ok = ref true in
      for _ = 1 to 50 do
        let t5 = random_tuple rng in
        let a = Acl.lookup acl t5 and b = Tss.lookup tss t5 in
        if a.Acl.action <> b.Tss.action then ok := false;
        (match (a.Acl.matched, b.Tss.matched) with
        | None, None -> ()
        | Some ra, Some rb -> if ra != rb then ok := false
        | Some _, None | None, Some _ -> ok := false);
        let ar = Acl.lookup_reverse acl t5 and br = Tss.lookup_reverse tss t5 in
        if ar.Acl.action <> br.Tss.action then ok := false;
        if ar.Acl.matched <> br.Tss.matched then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Classifier: backend-parameterized facade *)

let classifier_pair nrules ~seed =
  let rng = Nezha_engine.Rng.create seed in
  let lin = Classifier.create ~policy:(Classifier.Fixed Classifier.Linear) () in
  let tss = Classifier.create ~policy:(Classifier.Fixed Classifier.Tuple_space) () in
  for i = 1 to nrules do
    let r = random_rule rng i in
    Classifier.add lin r;
    Classifier.add tss r
  done;
  (rng, lin, tss)

let test_classifier_backends_agree () =
  let rng, lin, tss = classifier_pair 70 ~seed:77 in
  for _ = 1 to 300 do
    let t5 = random_tuple rng in
    let a = Classifier.lookup lin t5 and b = Classifier.lookup tss t5 in
    check_bool "same action" true (a.Classifier.action = b.Classifier.action);
    check_bool "same matched rule" true (a.Classifier.matched == b.Classifier.matched
                                         || a.Classifier.matched = b.Classifier.matched);
    let ar = Classifier.lookup_reverse lin t5 and br = Classifier.lookup_reverse tss t5 in
    check_bool "same reverse action" true (ar.Classifier.action = br.Classifier.action)
  done;
  check_bool "tss charges less work at scale" true
    (let _, lin1k, tss1k = classifier_pair 0 ~seed:5 in
     for i = 1 to 1000 do
       let r =
         Acl.rule ~priority:i
           ~src:(Ipv4.Prefix.make (Ipv4.of_octets 172 16 (i mod 200) 0) 24)
           Acl.Deny
       in
       Classifier.add lin1k r;
       Classifier.add tss1k r
     done;
     let probe = tuple "10.0.0.1" "10.0.0.2" in
     (Classifier.lookup tss1k probe).Classifier.rules_scanned * 10
     < (Classifier.lookup lin1k probe).Classifier.rules_scanned)

let test_classifier_resync_on_direct_acl_mutation () =
  (* Tenant rule updates mutate the ACL through its own handle; the TSS
     index must notice via the revision counter. *)
  let c = Classifier.create ~policy:(Classifier.Fixed Classifier.Tuple_space) () in
  let t5 = tuple "10.1.2.3" "2.2.2.2" in
  check_bool "permit before" true ((Classifier.lookup c t5).Classifier.action = Acl.Permit);
  Acl.add (Classifier.acl c) (Acl.rule ~priority:1 ~src:(pfx "10.0.0.0/8") Acl.Deny);
  check_bool "deny after direct add" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Deny);
  Acl.clear (Classifier.acl c);
  check_bool "permit after direct clear" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Permit);
  check_int "index emptied too" 0 (Classifier.tuple_count c)

let test_classifier_copy_independent () =
  let c = Classifier.create () in
  Classifier.add c (Acl.rule ~priority:1 ~src:(pfx "10.0.0.0/8") Acl.Deny);
  let d = Classifier.copy c in
  Classifier.add d (Acl.rule ~priority:0 ~src:(pfx "10.0.0.0/8") Acl.Permit);
  let t5 = tuple "10.1.1.1" "2.2.2.2" in
  check_bool "copy sees its own rule" true
    ((Classifier.lookup d t5).Classifier.action = Acl.Permit);
  check_bool "original unchanged" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Deny)

(* Matched-rule identity, not just equality: pre-actions hang off the
   rule record, so all backends must surface the same physical rule. *)
let same_match a b =
  match (a, b) with
  | None, None -> true
  | Some ra, Some rb -> ra == rb
  | _ -> false

(* Three backends over one shared rule list: the rule records are
   physically shared across the private ACL copies, so [same_match]
   can compare across classifiers. *)
let classifier_trio rules =
  let mk b = Classifier.of_acl ~policy:(Classifier.Fixed b) (Acl.of_rules rules) in
  (mk Classifier.Linear, mk Classifier.Tuple_space, mk Classifier.Learned)

let prop_classifier_backends_equivalent =
  QCheck.Test.make ~name:"linear, tuple-space and learned backends agree" ~count:40
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 60)))
    (fun (seed, nrules) ->
      let rng = Nezha_engine.Rng.create seed in
      let rules = List.init nrules (fun i -> random_rule rng (i + 1)) in
      let lin, tss, lrn = classifier_trio rules in
      let agree t5 =
        let a = Classifier.lookup lin t5
        and b = Classifier.lookup tss t5
        and c = Classifier.lookup lrn t5 in
        a.Classifier.action = b.Classifier.action
        && b.Classifier.action = c.Classifier.action
        && same_match a.Classifier.matched b.Classifier.matched
        && same_match b.Classifier.matched c.Classifier.matched
        &&
        let ar = Classifier.lookup_reverse lin t5
        and cr = Classifier.lookup_reverse lrn t5 in
        ar.Classifier.action = cr.Classifier.action
        && same_match ar.Classifier.matched cr.Classifier.matched
      in
      let ok = ref true in
      for _ = 1 to 40 do
        if not (agree (random_tuple rng)) then ok := false
      done;
      (* Facade adds land in the learned remainder set; the global
         tie-break order must survive the model/remainder split. *)
      for i = 1 to 8 do
        let r = random_rule rng (1000 + i) in
        Classifier.add lin r;
        Classifier.add tss r;
        Classifier.add lrn r
      done;
      for _ = 1 to 20 do
        if not (agree (random_tuple rng)) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Learned backend: scale, auto-selection, resync *)

(* The bench generator in miniature: [nlens] prefix lengths x proto x
   port presence over distinct address blocks per length — indexable
   enough that [Auto] picks the learned backend, diverse enough that
   the TSS grows tuple shapes with scale. *)
let scale_rules n =
  let lens = if n <= 1_000 then [| 16; 24; 32 |] else Array.init 12 (fun i -> 20 + i) in
  let nlens = Array.length lens in
  let with_ports = n > 10_000 in
  List.init n (fun i ->
      let len = lens.(i mod nlens) in
      let k = i / nlens in
      let block = k * 2654435761 land ((1 lsl (len - 8)) - 1) in
      let base = Int32.of_int ((172 lsl 24) lor (block lsl (32 - len))) in
      Acl.rule ~priority:(i + 1)
        ~src:(Ipv4.Prefix.make (Ipv4.of_int32 base) len)
        ?proto:(if k land 1 = 0 then Some Five_tuple.Tcp else None)
        ?dst_ports:(if with_ports && k land 2 = 0 then Some (1024, 65535) else None)
        Acl.Deny)

(* A packet inside [r]'s source block; TCP to dst port 2048 satisfies
   any proto/port constraint [scale_rules] emits. *)
let probe_of_rule (r : Acl.rule) ~salt =
  let p = Option.get r.Acl.src in
  let len = Ipv4.Prefix.length p in
  let off = if len >= 32 then 0 else salt land ((1 lsl (32 - len)) - 1) in
  let src =
    Ipv4.of_int32 (Int32.add (Ipv4.to_int32 (Ipv4.Prefix.base p)) (Int32.of_int off))
  in
  Five_tuple.make ~src ~dst:(ip "203.0.113.9") ~src_port:4000 ~dst_port:2048
    ~proto:Five_tuple.Tcp

let test_learned_index_shape () =
  let rules = scale_rules 10_000 in
  let acl = Acl.of_rules rules in
  let l = Learned.create () in
  Learned.build l acl;
  check_bool "isets built" true (Learned.iset_count l > 0);
  check_int "nothing lost" 10_000 (Learned.rule_count l);
  check_int "indexed + remainder = all" 10_000
    (Learned.indexed_rules l + Learned.remainder_rules l);
  check_bool "most rules indexed" true (Learned.remainder_fraction l < 0.25);
  let err = Learned.max_error l in
  check_bool "bounded leaf error" true (err >= 0 && err < 64);
  check_bool "memory accounted" true (Learned.memory_bytes l > 0);
  (* The error-window contract in action: per-lookup work stays a
     handful of model evals plus window steps, never O(n). *)
  let worst = ref 0 in
  List.iteri
    (fun i r ->
      if i mod 101 = 0 then begin
        let v = Learned.lookup l (probe_of_rule r ~salt:i) in
        (match v.Learned.matched with
        | Some m -> check_bool "hit at least the probed rule" true (m.Acl.priority <= r.Acl.priority)
        | None -> Alcotest.fail "indexable probe missed");
        let work = v.Learned.model_evals + v.Learned.window_scans + v.Learned.remainder_probes in
        if work > !worst then worst := work
      end)
    rules;
  check_bool "sublinear lookup work" true (!worst * 50 < 10_000)

let test_classifier_auto_selection () =
  (* Below the rule threshold Auto stays with tuple space. *)
  let small = Classifier.of_acl (Acl.of_rules (scale_rules 512)) in
  check_bool "auto policy" true (Classifier.policy small = Classifier.Auto);
  check_bool "small stays tss" true (Classifier.backend small = Classifier.Tuple_space);
  (* Large and indexable: Auto upgrades to the learned index. *)
  let big = Classifier.of_acl (Acl.of_rules (scale_rules 5_000)) in
  check_bool "big goes learned" true (Classifier.backend big = Classifier.Learned);
  (* Large but wildcard in both address fields: the model could index
     nothing, so Auto must refuse the learned backend. *)
  let wild =
    Classifier.of_acl
      (Acl.of_rules
         (List.init 5_000 (fun i ->
              let lo = i mod 60_000 in
              Acl.rule ~priority:(i + 1) ~dst_ports:(lo, lo + 10) Acl.Deny)))
  in
  check_bool "wildcards stay tss" true (Classifier.backend wild = Classifier.Tuple_space);
  (* Growing through the facade across the threshold: the add fast path
     only flags the crossing; the next sync re-selects. *)
  let grow = Classifier.create () in
  List.iter (Classifier.add grow) (scale_rules (Classifier.auto_rule_threshold + 64));
  check_bool "grew into learned" true (Classifier.backend grow = Classifier.Learned);
  (* A pinned backend never re-selects, whatever the scale. *)
  let pinned =
    Classifier.of_acl ~policy:(Classifier.Fixed Classifier.Linear)
      (Acl.of_rules (scale_rules 5_000))
  in
  check_bool "fixed stays put" true (Classifier.backend pinned = Classifier.Linear)

let test_learned_revision_resync () =
  let rules = scale_rules 1_000 in
  let c = Classifier.of_acl ~policy:(Classifier.Fixed Classifier.Learned) (Acl.of_rules rules) in
  let t5 = probe_of_rule (List.hd rules) ~salt:0 in
  check_bool "deny from model" true ((Classifier.lookup c t5).Classifier.action = Acl.Deny);
  (* Facade add: absorbed into the remainder set, visible immediately,
     and its lower priority number must beat the model's rule. *)
  Classifier.add c (Acl.rule ~priority:0 ~src:(pfx "172.0.0.0/8") Acl.Permit);
  check_bool "permit from remainder" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Permit);
  (* Removal can't patch immutable model arrays: the backend refuses the
     incremental path and the next lookup rebuilds. *)
  check_bool "removed" true (Classifier.remove c ~priority:0);
  check_bool "deny after rebuild" true ((Classifier.lookup c t5).Classifier.action = Acl.Deny);
  (* Mutation through the raw ACL handle: the revision bump alone must
     trigger the rebuild before the next lookup. *)
  Acl.add (Classifier.acl c) (Acl.rule ~priority:0 ~src:(pfx "172.0.0.0/8") Acl.Permit);
  check_bool "permit after direct add" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Permit);
  ignore (Acl.remove (Classifier.acl c) ~priority:0 : bool);
  check_bool "deny after direct remove" true
    ((Classifier.lookup c t5).Classifier.action = Acl.Deny)

let test_classifier_scale_10k_exhaustive () =
  let rules = scale_rules 10_000 in
  let lin, tss, lrn = classifier_trio rules in
  check_bool "learned pinned" true (Classifier.backend lrn = Classifier.Learned);
  List.iteri
    (fun i r ->
      let t5 = probe_of_rule r ~salt:i in
      let b = Classifier.lookup tss t5 and c = Classifier.lookup lrn t5 in
      if b.Classifier.action <> c.Classifier.action
         || not (same_match b.Classifier.matched c.Classifier.matched)
      then Alcotest.failf "tss/learned diverge probing rule %d" r.Acl.priority;
      (* The linear oracle is O(n) per probe; sample it. *)
      if i mod 37 = 0 then begin
        let a = Classifier.lookup lin t5 in
        if a.Classifier.action <> c.Classifier.action
           || not (same_match a.Classifier.matched c.Classifier.matched)
        then Alcotest.failf "linear/learned diverge probing rule %d" r.Acl.priority
      end)
    rules

let test_classifier_scale_100k_sampled () =
  let n = 100_000 in
  let rules = scale_rules n in
  let arr = Array.of_list rules in
  let lin, tss, lrn = classifier_trio rules in
  check_bool "learned memory below tss" true
    (Classifier.memory_bytes lrn < Classifier.memory_bytes tss);
  let rng = Nezha_engine.Rng.create 424242 in
  for i = 1 to 300 do
    let t5 =
      if i land 1 = 0 then probe_of_rule arr.(Nezha_engine.Rng.int rng n) ~salt:i
      else random_tuple rng
    in
    let a = Classifier.lookup lin t5
    and b = Classifier.lookup tss t5
    and c = Classifier.lookup lrn t5 in
    check_bool "same action" true
      (a.Classifier.action = b.Classifier.action && b.Classifier.action = c.Classifier.action);
    check_bool "same matched rule" true
      (same_match a.Classifier.matched b.Classifier.matched
      && same_match b.Classifier.matched c.Classifier.matched)
  done

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "tables"
    [
      ( "lpm",
        [
          Alcotest.test_case "longest wins" `Quick test_lpm_longest_wins;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          Alcotest.test_case "replace and remove" `Quick test_lpm_replace_and_remove;
          Alcotest.test_case "host route" `Quick test_lpm_host_route;
          Alcotest.test_case "depth cost" `Quick test_lpm_depth_cost;
          Alcotest.test_case "memory accounting" `Quick test_lpm_memory_grows;
          Alcotest.test_case "iter reconstructs prefixes" `Quick test_lpm_iter_reconstructs;
        ]
        @ qsuite [ prop_lpm_lookup_member ] );
      ( "acl",
        [
          Alcotest.test_case "priority order" `Quick test_acl_priority_order;
          Alcotest.test_case "default action" `Quick test_acl_default;
          Alcotest.test_case "port and proto match" `Quick test_acl_port_and_proto_match;
          Alcotest.test_case "scan cost grows with rules" `Quick test_acl_scan_cost_grows;
          Alcotest.test_case "remove" `Quick test_acl_remove;
          Alcotest.test_case "stable at same priority" `Quick test_acl_stable_same_priority;
        ] );
      ( "tss",
        [
          Alcotest.test_case "matches acl" `Quick test_tss_matches_acl;
          Alcotest.test_case "sublinear probes" `Quick test_tss_sublinear_probes;
          Alcotest.test_case "priority and ties" `Quick test_tss_priority_and_ties;
          Alcotest.test_case "remove" `Quick test_tss_remove;
          Alcotest.test_case "clear" `Quick test_tss_clear;
          Alcotest.test_case "memory accounting" `Quick test_tss_memory_accounting;
        ]
        @ qsuite [ prop_tss_equivalent ] );
      ( "classifier",
        [
          Alcotest.test_case "backends agree" `Quick test_classifier_backends_agree;
          Alcotest.test_case "resync on direct acl mutation" `Quick
            test_classifier_resync_on_direct_acl_mutation;
          Alcotest.test_case "copy is independent" `Quick test_classifier_copy_independent;
        ]
        @ qsuite [ prop_classifier_backends_equivalent ] );
      ( "learned",
        [
          Alcotest.test_case "index shape and error window" `Quick test_learned_index_shape;
          Alcotest.test_case "auto selection" `Quick test_classifier_auto_selection;
          Alcotest.test_case "revision resync" `Quick test_learned_revision_resync;
          Alcotest.test_case "10k exhaustive vs oracle" `Slow test_classifier_scale_10k_exhaustive;
          Alcotest.test_case "100k sampled vs oracle" `Slow test_classifier_scale_100k_sampled;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "insert and find" `Quick test_ft_insert_find;
          Alcotest.test_case "bidirectional key" `Quick test_ft_bidirectional_key;
          Alcotest.test_case "vpc isolation" `Quick test_ft_vpc_isolation;
          Alcotest.test_case "capacity limit" `Quick test_ft_capacity;
          Alcotest.test_case "replace updates memory" `Quick test_ft_replace_updates_memory;
          Alcotest.test_case "aging expiry" `Quick test_ft_aging;
          Alcotest.test_case "touch extends life" `Quick test_ft_touch_extends;
          Alcotest.test_case "short aging override" `Quick test_ft_short_aging_override;
          Alcotest.test_case "remove cancels timer" `Quick test_ft_remove;
          Alcotest.test_case "update in place" `Quick test_ft_update;
        ]
        @ qsuite [ prop_ft_memory_consistent ] );
    ]
