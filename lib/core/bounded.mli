(** Bounded map with least-recently-used eviction.

    {!find} and {!add} mark their key most recently used; {!peek} and
    {!fold} leave recency alone.  An {!add} past the cap drops the least
    recently used key, chosen by a per-instance clock with unique
    stamps: the victim depends only on the sequence of calls, never on
    hashtable order.  Lookups are O(1); an eviction is O(length).

    Not thread-safe: callers that share a map across domains hold their
    own lock around every call. *)

type ('k, 'v) t

val create : ?counter:Obs.Metrics.counter -> int -> ('k, 'v) t
(** [create cap] holds at most [cap] keys and bumps [counter], when
    given, on every eviction.  [cap < 1] raises [Invalid_argument]. *)

val find : ('k, 'v) t -> 'k -> 'v option
val peek : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind or rebind the key, evicting past the cap. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** In unspecified order. *)

val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Keys this map has evicted: a per-instance count, deterministic even
    with the metrics registry disabled. *)
