(** Unified instruction-cache simulator: direct-mapped, N-way and fully
    associative (LRU), with whole-block fill, block sectoring, or partial
    loading.

    Metric definitions follow the paper: miss ratio = misses / fetches;
    traffic ratio = 4-byte bus words transferred / fetches.

    Hit-path cost model: once code is placed, replay is nearly all hits,
    so {!access_run} is shaped for them.  A frame's tag is the full block
    number, so a probe compares without dividing; each call divides once
    for its first block and set, then walks consecutive blocks by
    stepping the set and wrapping at the set count (any valid geometry,
    no power-of-two requirement).  A resident whole-fill block costs one
    tag compare per way probed plus the LRU stamp. *)

type outcome = {
  miss : bool;
  fetched_words : int;  (** bus words transferred by this access *)
  word_in_block : int;  (** word offset of the access within its block *)
}

type t

val create : Config.t -> t
(** Raises {!Config.Invalid} on a bad configuration. *)

val access : t -> int -> outcome
(** Simulate one instruction fetch at a byte address. *)

val access_run :
  t ->
  addr:int ->
  words:int ->
  on_miss:(at:int -> word_in_block:int -> fetched_words:int -> unit) ->
  unit
(** Bulk fast path: simulate [words] consecutive 4-byte fetches starting
    at [addr] (one basic block's sequential run) with one tag probe per
    cache block touched; guaranteed-hit tail words are counted
    arithmetically.  Exactly equivalent to calling {!access} on each word
    in turn — counters, validity, LRU and prefetch state all match.
    [on_miss] fires in order for every fetch that would have missed,
    with [at] the word index within the run. *)

val skip_hits : t -> int -> unit
(** [skip_hits t words] accounts [words] fetches that repeat, in order,
    a sequence of fetches that just all hit in [t] — as {!access_run}
    on each of them would, which changes only the access count.  The
    caller guarantees the all-hit precondition; the LRU clock stays
    put, since re-stamping the same frames in the same order keeps
    every set's LRU order. *)

val miss_ratio : t -> float
val traffic_ratio : t -> float
val avg_fetch_words : t -> float
(** Mean bus words per miss — Table 8's [avg.fetch] column. *)

val invariant : t -> bool
(** Internal consistency, for property tests. *)

val accesses : t -> int
val misses : t -> int
val words_fetched : t -> int

val prefetches : t -> int
(** Next-line prefetch fills issued (when the config enables prefetch). *)
