(** Run-length/delta-compressed block trace.

    Consecutive executed blocks very often have consecutive packed
    codes, so the trace is stored as runs; and loops make the run
    sequence itself repetitive, so equal-shaped consecutive runs
    collapse into one record — the zigzag delta of each run's base from
    the previous run's last code, with two flag bits marking an
    optional length field (single-block runs pay nothing) and an
    optional repeat count (non-repeating runs pay nothing).  Decoding
    reproduces the exact packed-code sequence at a small fraction of the
    8 bytes per block a plain code vector would hold. *)

open Ir

type t = {
  data : Bytes.t;  (** varint run tokens *)
  runs : int;
  nblocks : int;
  result : Vm.Interp.result;
}

(** {2 Construction} *)

type builder

val builder : unit -> builder

val push : builder -> int -> unit
(** Append one packed block code (see {!Trace_gen.pack}). *)

val finish : builder -> Vm.Interp.result -> t

val record : ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** The VM streams blocks straight into the compressing builder
    ({!Trace_gen.stream}), so peak trace residency is the compressed
    size — no raw vector ever exists.  Raises
    {!Trace_gen.Too_many_blocks}. *)

(** {2 Replay} *)

val iter_runs : (code:int -> len:int -> unit) -> t -> unit
(** Decoded runs in order: [len] consecutive packed codes starting at
    [code]. *)

val iter_blocks : (int -> Cfg.label -> unit) -> t -> unit
(** Every executed block as [(fid, label)], identical to the sequence
    that was pushed. *)

(** {2 Stats} *)

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int
val runs : t -> int
val compressed_bytes : t -> int

val raw_bytes : t -> int
(** Size of a plain vector of the same packed codes (8 bytes/block). *)

val dyn_insns : Placement.Address_map.t -> t -> int
