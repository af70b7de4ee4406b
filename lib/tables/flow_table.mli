(** Exact-match session/flow table with aging and memory accounting.

    This is the fast-path table of §2.1: one bidirectional entry per
    session, found by exact match on {!Flow_key.t}.  Entries age out on a
    timer wheel; the per-entry aging time is overridable so incomplete
    (SYN-state) sessions can be expired early (§7.3).  Memory is accounted
    as a fixed per-entry overhead plus a caller-supplied variable part, and
    insertion fails when a capacity budget would be exceeded — which is
    precisely the mechanism that caps #concurrent flows on a SmartNIC.

    {b Layout.}  A binding is a stable id into a pool of flat arrays: its
    key packed into three [int] words (vpc, protocol and ports in one,
    each address in its own), its deadline and armed time in a
    [float array], its accounted bytes and wheel timer in [int array]s,
    and its value in a value array.  Inserting, refreshing and expiring
    store unboxed words; the value is the one pointer a binding holds.
    A released id keeps nothing alive, and is handed out again.

    {b Aging by deadline.}  Each entry stores its aging deadline and owns
    one wheel timer, whose payload is the entry's id.  Refreshing an
    entry to a later deadline only stores that deadline — it allocates
    nothing and leaves the wheel alone; when the timer fires at the old
    deadline it re-arms in place at the stored one, allocating nothing
    either.  A deadline moved earlier
    (say, SYN aging after flow aging) re-arms at once.  An entry leaves
    the table at the first {!expire} whose [now] reaches the end of its
    deadline's wheel slot, exactly as if every refresh had re-armed its
    timer; only the order of [on_expire] calls within one sweep can
    differ.

    {b Index.}  Entries are found through one flat open-addressed index:
    linear probing over a power-of-two array of (full key hash, id)
    pairs, grown (doubled) at 3/4 load.  The hash packs the key's fields
    into the three exact integer words the pool stores and allocates
    nothing; a key is compared, word by word, only where its full hash
    matches.  A removal shifts the rest of its probe run back, so no
    tombstones accumulate.  {!iter} visits bindings in slot order.

    {b Handles.}  {!find_entry} returns a handle: the binding's id and
    the generation it was issued under, in one [int].  While it is
    {!live}, {!value}, {!refresh} and {!replace} act on the binding with
    no further hash lookup, so a packet's session path hashes its key
    once.  {!remove}, {!expire} and {!clear} kill the handle; the id may
    then be reused by a new binding, which a stale handle never reaches.
    A caller holding a dead handle goes back to the key ({!find_entry}
    again, or {!insert}).

    {b Sized at the first insert.}  A table allocates its 512-slot
    index, its pool and its 256-slot aging wheel at its first successful
    insert, so one that never holds a session — an idle vNIC — costs a
    few dozen words.  The geometry is the same as if they had been
    allocated at creation, and the new wheel starts at the insert's
    [now], where {!expire} calls up to then would have left an empty
    one: iteration and expiry order do not depend on when the table was
    sized.  Before that, every read sees an empty table; {!clear} leaves
    a sized table sized, its index and pool shrunk back to their first
    sizes. *)

type 'v t

type 'v entry [@@immediate]
(** A handle on one binding. *)

val create :
  ?capacity_bytes:int ->
  entry_overhead:int ->
  value_bytes:('v -> int) ->
  default_aging:float ->
  unit ->
  'v t
(** [capacity_bytes] omitted means unbounded.  [default_aging] is the idle
    time after which an untouched entry expires.  Allocates neither the
    index nor the wheel (see above).
    @raise Invalid_argument if [default_aging <= 0]. *)

val insert : 'v t -> now:float -> ?aging:float -> Flow_key.t -> 'v -> Admission.t
(** Insert or replace.  [Error `Table_full] when the entry does not fit
    in the remaining budget (existing binding, if any, is left
    untouched). *)

val find : 'v t -> Flow_key.t -> 'v option

val find_entry : 'v t -> Flow_key.t -> 'v entry option

val live : 'v t -> 'v entry -> bool
(** [false] once the binding was removed, expired or cleared, also
    when its id has since been reused.  A handle means something only
    to the table that issued it. *)

val value : 'v t -> 'v entry -> 'v
(** The binding's current value.
    @raise Invalid_argument if the entry is dead. *)

val refresh : 'v t -> now:float -> ?aging:float -> 'v entry -> unit
(** {!touch} through a handle.
    @raise Invalid_argument if the entry is dead. *)

val replace : 'v t -> now:float -> ?aging:float -> 'v entry -> 'v -> Admission.t
(** {!insert} over the handle's own binding: same accounting, same
    [Error `Table_full] rule.
    @raise Invalid_argument if the entry is dead. *)

val touch : 'v t -> now:float -> ?aging:float -> Flow_key.t -> bool
(** Refresh the aging deadline of an entry; [false] if absent. *)

val remove : 'v t -> Flow_key.t -> bool

val expire : 'v t -> now:float -> on_expire:(Flow_key.t -> 'v -> unit) -> int
(** Evict every entry idle past its aging time; returns the count.  Must
    be called with non-decreasing [now].  [on_expire] gets a key rebuilt
    from the stored words, equal to the one inserted. *)

val expire_values : 'v t -> now:float -> on_expire:('v -> unit) -> int
(** {!expire} for a callback that never reads the key: no key is
    rebuilt. *)

val length : 'v t -> int
val memory_bytes : 'v t -> int

val pending_timers : 'v t -> int
(** Armed wheel timers: one per entry, however often entries are
    refreshed. *)

val iter : 'v t -> (Flow_key.t -> 'v -> unit) -> unit
(** [f] must not insert into or remove from [t].  Keys are rebuilt as
    for {!expire}. *)

val iter_values : 'v t -> ('v -> unit) -> unit
(** {!iter} for a callback that never reads the key: no key is
    rebuilt. *)

val clear : 'v t -> unit
(** Drop every binding; all handles die. *)
