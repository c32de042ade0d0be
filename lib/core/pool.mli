(** Fixed-size domain pool with a chunked task queue and
    exception-carrying futures.

    [map] preserves input order, re-raises the lowest-index failing
    task's exception with its original payload and backtrace, and
    degrades to [List.map] on a single-lane pool — so [-j 1] is the
    serial path byte for byte, and a parallel run is bit-identical for
    any task function whose output depends only on its input.

    Nested [map] calls (a pool task submitting its own job to the same
    pool) are safe: the submitter executes its job's tasks itself until
    none are left to claim, so progress never depends on a free worker
    being available. *)

type t

val create : int -> t
(** [create lanes] runs jobs on [lanes] domains in total: [lanes - 1]
    spawned workers plus the calling domain, which participates in every
    [map] it submits.  [lanes <= 0] raises [Invalid_argument]; a 1-lane
    pool spawns nothing. *)

val lanes : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], in input order.  If tasks raise, the exception
    of the lowest-index failing task is re-raised in the caller once all
    tasks have settled. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Call once, with no job in
    flight. *)

(** {2 Process-wide default pool}

    How `-j N` reaches the parallel grains (benchmarks within a table,
    configurations within a sweep, strategies within a lint sweep,
    fuzzer seeds) without threading a pool through every experiment
    signature.  [None] (the initial state) means every consumer runs
    serially. *)

val set_default : t option -> unit
val default : unit -> t option

val map_default : ('a -> 'b) -> 'a list -> 'b list
(** [map] on the default pool, or [List.map] when none is set. *)

val with_default : int -> (unit -> 'a) -> 'a
(** [with_default lanes f] runs [f] with a fresh [lanes]-lane pool as
    the default, then restores the previous default and shuts the pool
    down, also when [f] raises.  [with_default 1] spawns no domain.
    Raises [Invalid_argument] when [lanes <= 0]. *)
