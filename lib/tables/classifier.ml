open Nezha_net

type verdict = { action : Acl.action; rules_scanned : int; matched : Acl.rule option }

module type BACKEND = sig
  type t

  val name : string
  val create : default:Acl.action -> unit -> t
  val build : t -> Acl.t -> unit
  val insert : t -> Acl.rule -> bool
  val remove : t -> priority:int -> bool
  val clear : t -> unit
  val lookup : t -> Five_tuple.t -> verdict
  val lookup_reverse : t -> Five_tuple.t -> verdict
  val tuple_count : t -> int
  val memory_bytes : t -> int
end

(* The linear backend has no derived state: [build] captures the live
   ACL handle and lookups read it directly, which is what makes it the
   reference oracle — it can never be stale. *)
module Linear_backend = struct
  type t = { mutable acl : Acl.t }

  let name = "linear"
  let create ~default () = { acl = Acl.create ~default () }
  let build t acl = t.acl <- acl
  let insert _ _ = true
  let remove _ ~priority:_ = true
  let clear _ = ()

  let lookup t t5 =
    let v = Acl.lookup t.acl t5 in
    { action = v.Acl.action; rules_scanned = v.Acl.rules_scanned; matched = v.Acl.matched }

  let lookup_reverse t t5 =
    let v = Acl.lookup_reverse t.acl t5 in
    { action = v.Acl.action; rules_scanned = v.Acl.rules_scanned; matched = v.Acl.matched }

  let tuple_count _ = 0
  let memory_bytes t = Acl.memory_bytes t.acl
end

module Tss_backend = struct
  type t = Tss.t

  let name = "tss"
  let create ~default () = Tss.create ~default ()

  let build t acl =
    Tss.clear t;
    (* Match order becomes TSS insertion order, so ties break as the
       oracle breaks them. *)
    Acl.iter_rules acl (fun r -> Tss.add t r)

  let insert t r =
    Tss.add t r;
    true

  let remove t ~priority =
    ignore (Tss.remove t ~priority : bool);
    true

  let clear = Tss.clear

  let verdict_of (v : Tss.verdict) =
    {
      action = v.Tss.action;
      rules_scanned = v.Tss.tuples_probed + v.Tss.bucket_scans;
      matched = v.Tss.matched;
    }

  let lookup t t5 = verdict_of (Tss.lookup t t5)
  let lookup_reverse t t5 = verdict_of (Tss.lookup_reverse t t5)
  let tuple_count = Tss.tuple_count
  let memory_bytes = Tss.memory_bytes
end

module Learned_backend = struct
  type t = Learned.t

  let name = "learned"
  let create ~default () = Learned.create ~default ()
  let build = Learned.build

  let insert t r =
    (* Joins the remainder set — correct immediately, indexed on the
       next full rebuild. *)
    Learned.insert t r;
    true

  let remove _ ~priority:_ = false (* model arrays are immutable: rebuild *)
  let clear = Learned.clear

  let verdict_of (v : Learned.verdict) =
    {
      action = v.Learned.action;
      rules_scanned = v.Learned.model_evals + v.Learned.window_scans + v.Learned.remainder_probes;
      matched = v.Learned.matched;
    }

  let lookup t t5 = verdict_of (Learned.lookup t t5)
  let lookup_reverse t t5 = verdict_of (Learned.lookup_reverse t t5)
  let tuple_count = Learned.remainder_tuple_count
  let memory_bytes = Learned.memory_bytes
end

type backend = Linear | Tuple_space | Learned

let backend_to_string = function
  | Linear -> "linear"
  | Tuple_space -> "tss"
  | Learned -> "learned"

let backend_of_string = function
  | "linear" -> Some Linear
  | "tss" | "tuple_space" -> Some Tuple_space
  | "learned" -> Some Learned
  | _ -> None

let backend_code = function Linear -> 0 | Tuple_space -> 1 | Learned -> 2

let backend_module : backend -> (module BACKEND) = function
  | Linear -> (module Linear_backend)
  | Tuple_space -> (module Tss_backend)
  | Learned -> (module Learned_backend)

type policy = Auto | Fixed of backend

let policy_to_string = function
  | Auto -> "auto"
  | Fixed b -> "fixed:" ^ backend_to_string b

(* Auto-selection thresholds.  Below [auto_rule_threshold] the TSS probe
   list is short and model training is not worth the rebuild cost; the
   learned index also needs most rules to yield a finite interval on one
   address field, or its remainder TSS dominates and the model is pure
   overhead. *)
let auto_rule_threshold = 4096
let auto_min_indexable = 0.75

let select acl =
  if Acl.rule_count acl < auto_rule_threshold then Tuple_space
  else if Learned.indexable_fraction acl < auto_min_indexable then Tuple_space
  else Learned

(* A backend instance packed with its module: the facade dispatches
   through the interface, never over the constructor enum. *)
type instance = Inst : (module BACKEND with type t = 'a) * 'a -> instance

let instantiate backend ~default =
  match backend_module backend with
  | (module B : BACKEND) -> Inst ((module B), B.create ~default ())

type t = {
  acl : Acl.t; (* source of truth and reference oracle *)
  policy : policy;
  mutable chosen : backend;
  mutable inst : instance;
  mutable synced_revision : int; (* Acl revision the index reflects; min_int = never *)
}

let of_acl ?(policy = Auto) acl =
  let chosen = match policy with Fixed b -> b | Auto -> select acl in
  {
    acl;
    policy;
    chosen;
    inst = instantiate chosen ~default:(Acl.default_action acl);
    synced_revision = min_int;
  }

let create ?policy ?(default = Acl.Permit) () = of_acl ?policy (Acl.create ~default ())

let acl t = t.acl
let policy t = t.policy
let default_action t = Acl.default_action t.acl
let revision t = Acl.revision t.acl

(* The ACL may also be mutated through its own handle (tenant updates go
   through [Ruleset.acl]); the revision check catches that and rebuilds
   the index before the next lookup.  The rebuild is also where [Auto]
   re-decides the backend, so a table that grew past the threshold since
   the last sync comes back as a learned index. *)
let sync t =
  let rev = Acl.revision t.acl in
  if rev <> t.synced_revision then begin
    let want = match t.policy with Auto -> select t.acl | Fixed b -> b in
    if want <> t.chosen then begin
      t.chosen <- want;
      t.inst <- instantiate want ~default:(Acl.default_action t.acl)
    end;
    let (Inst ((module B), b)) = t.inst in
    B.build b t.acl;
    t.synced_revision <- rev
  end

let backend t =
  sync t;
  t.chosen

(* Incremental mutation fast path: only valid while the index is in sync
   and the mutation cannot flip an [Auto] decision.  The selection
   function is O(rules), so the add path never calls it — it only checks
   the cheap size trigger (crossing the threshold exactly) and defers
   the real decision to the next sync. *)
let add t r =
  let before = Acl.revision t.acl in
  Acl.add t.acl r;
  if t.synced_revision = before then begin
    let selection_stable =
      match t.policy with
      | Fixed _ -> true
      | Auto -> not (Acl.rule_count t.acl = auto_rule_threshold && t.chosen <> Learned)
    in
    if selection_stable then begin
      let (Inst ((module B), b)) = t.inst in
      if B.insert b r then t.synced_revision <- Acl.revision t.acl
    end
  end

let remove t ~priority =
  let before = Acl.revision t.acl in
  let removed = Acl.remove t.acl ~priority in
  if t.synced_revision = before then begin
    if not removed then
      (* Revision bumped but nothing changed: the index is still exact. *)
      t.synced_revision <- Acl.revision t.acl
    else begin
      let (Inst ((module B), b)) = t.inst in
      if B.remove b ~priority then t.synced_revision <- Acl.revision t.acl
    end
  end;
  removed

let clear t =
  Acl.clear t.acl;
  let (Inst ((module B), b)) = t.inst in
  B.clear b
(* synced_revision left stale on purpose: the next lookup re-runs
   selection (under [Auto] an empty table drops back to tuple space)
   and rebuilds, which on an empty ACL is free. *)

let lookup t t5 =
  sync t;
  let (Inst ((module B), b)) = t.inst in
  B.lookup b t5

let lookup_reverse t t5 =
  sync t;
  let (Inst ((module B), b)) = t.inst in
  B.lookup_reverse b t5

let rule_count t = Acl.rule_count t.acl

let tuple_count t =
  sync t;
  let (Inst ((module B), b)) = t.inst in
  B.tuple_count b

let memory_bytes t =
  sync t;
  let (Inst ((module B), b)) = t.inst in
  B.memory_bytes b

let copy t = of_acl ~policy:t.policy (Acl.copy t.acl)
