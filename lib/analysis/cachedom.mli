(** Bounded age-vector lattice for abstract I-cache states: one byte of
    abstract LRU age (0..ways, [ways] = absent/top) per cache line in
    the program's line universe, with the lines grouped by their cache
    set under {!Icache.Config}.  Must states hold upper bounds on true age
    (joined by pointwise max ⇒ [age < ways] certifies a hit); May
    states hold lower bounds (joined by pointwise min ⇒ [age = ways]
    certifies a miss).  {!Absint} runs both as
    {!Dataflow.solve_values} instances. *)

val max_ways : int
(** Byte-encoded ages cap usable associativity (254); larger configs
    must be gated, not analyzed. *)

type universe = {
  ways : int;  (** top age *)
  nlines : int;
  line_no : int array;  (** dense id -> absolute line number, ascending *)
  set_rank : int array;
      (** dense id -> rank of its cache set among the sets the universe
          occupies *)
  set_ids : int array array;
      (** set rank -> the dense ids in that set, ascending *)
}

type state = Bytes.t

val universe : Icache.Config.t -> int array -> universe
(** Dense-id universe over the given absolute line numbers (any order,
    duplicates fine): an id is the rank of its line among the distinct
    lines.  Its size follows the lines, not the cache's set count.
    Raises [Invalid_argument] beyond {!max_ways} ways. *)

val id : universe -> int -> int
(** Absolute line number -> dense id, by binary search; raises
    [Not_found] for a line outside the universe. *)

val top : universe -> state
(** All lines absent — the empty-cache boundary value of both domains. *)

val copy : state -> state
val assign : dst:state -> state -> unit
val age : state -> int -> int
val access_must : universe -> state -> int -> unit
val access_may : universe -> state -> int -> unit
val must_lattice : universe -> state Dataflow.lattice
val may_lattice : universe -> state Dataflow.lattice
