(** Instruction paging simulation — the paper's §5 "continuing research"
    direction: page faults and Denning working-set behavior of the
    instruction stream.

    Tracks simultaneously an unbounded-memory model (distinct pages
    touched = compulsory faults) and a bounded-frame LRU model (an
    {!Icache.Cache}: fully associative, one page per frame, whole-block
    fill), and samples the working set |W(t, theta)| periodically. *)

type config = {
  page_bytes : int;
  frames : int;  (** bounded-memory frame count for the LRU model *)
  theta : int;  (** working-set window, in accesses *)
  sample_every : int;  (** working-set sampling period *)
}

val default_config : config
(** 512-byte pages, 16 frames, theta = 10000, sampled every 1000. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on non-positive parameters, or when
    [page_bytes] is not a multiple of 4. *)

val access_run : t -> addr:int -> words:int -> unit
(** Record [words] consecutive 4-byte instruction fetches starting at
    byte address [addr], with one span of bookkeeping per page touched;
    working-set samples that land mid-run see the per-word state. *)

val accesses : t -> int
val distinct_pages : t -> int
(** Compulsory faults: the program's instruction footprint in pages. *)

val lru_faults : t -> int
val fault_rate : t -> float
val mean_working_set : t -> float
val max_working_set : t -> int
