(** Bounded age-vector lattice for abstract I-cache states: one byte of
    abstract LRU age (0..ways, [ways] = absent/top) per cache line in
    the program's line universe, keyed by cache set from
    {!Icache.Config}.  Must states hold upper bounds on true age
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
  line_no : int array;  (** dense id -> absolute line number *)
  set_of : int array;  (** dense id -> cache set index *)
  mates : int array array;  (** dense id -> other dense ids in its set *)
  nsets : int;
}

type state = Bytes.t

val universe : Icache.Config.t -> int list -> universe
(** Dense-id universe over the given absolute line numbers (duplicates
    fine).  Raises [Invalid_argument] beyond {!max_ways} ways. *)

val id_table : universe -> (int, int) Hashtbl.t
(** Absolute line number -> dense id. *)

val top : universe -> state
(** All lines absent — the empty-cache boundary value of both domains. *)

val copy : state -> state
val assign : dst:state -> state -> unit
val age : state -> int -> int
val access_must : universe -> state -> int -> unit
val access_may : universe -> state -> int -> unit
val must_lattice : universe -> state Dataflow.lattice
val may_lattice : universe -> state Dataflow.lattice
