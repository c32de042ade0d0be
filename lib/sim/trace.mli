(** The trace store: one recorded execution, held as the sequence of
    executed basic blocks.

    A block is a (function id, label) pair packed into one int.  The
    sequence is layout-independent: replaying it against different
    address maps and cache configurations expands each block into
    instruction-fetch addresses without re-running the interpreter.

    Consecutive executed blocks very often have consecutive packed
    codes, so the sequence is stored as runs; and loops make the run
    sequence itself repetitive, so equal-shaped consecutive runs
    collapse into one record.  Decoding reproduces the exact packed-code
    sequence at a small fraction of the 8 bytes per block a plain code
    vector would hold. *)

open Ir

type t

exception Too_many_blocks of string

val pack : int -> Cfg.label -> int
val unpack_fid : int -> int
val unpack_label : int -> Cfg.label

(** {2 Construction} *)

val record : ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** Execute the program, streaming every block straight into the
    compressing builder, so peak residency is the compressed size.
    Updates the [trace.*] gauges when metrics are enabled.  Raises
    {!Too_many_blocks} if a function exceeds the packing capacity (2^20
    blocks). *)

type builder

val builder : unit -> builder

val push : builder -> int -> unit
(** Append one packed block code (see {!pack}). *)

val finish : builder -> Vm.Interp.result -> t

(** {2 Replay} *)

val iter_runs : (code:int -> len:int -> unit) -> t -> unit
(** Decoded runs in order: [len] consecutive packed codes starting at
    [code]. *)

val iter_blocks : (int -> Cfg.label -> unit) -> t -> unit
(** Every executed block as [(fid, label)], in execution order. *)

val iter_spans : Placement.Address_map.t -> (int -> int -> unit) -> t -> unit
(** [iter_spans map f t] calls [f addr words] once per maximal
    address-contiguous span of the fetch stream under [map], in
    execution order: a run of executed blocks in which each block
    starts at the byte address where the previous one ended.  Zero-word
    blocks are skipped without breaking a span.  The spans cover
    exactly the words the per-block walk fetches, in the same order,
    and no span starts where the previous one ended. *)

(** {2 Span programs} *)

type program = private {
  span_addr : int array;  (** span id -> byte address *)
  span_words : int array;  (** span id -> words fetched *)
  windows : int array;  (** the distinct windows' span ids, back to back *)
  window_start : int array;
      (** window [w] is [windows.(window_start.(w))] to
          [windows.(window_start.(w + 1) - 1)], 1 to 8 ids *)
  records : Bytes.t;  (** read with {!iter_records} *)
  nrecords : int;
  nspans : int;  (** spans the program expands to *)
}
(** The span stream of one trace under one map ({!iter_spans}), decoded
    once: a table of its distinct [(addr, words)] spans, a table of
    distinct windows of at most 8 span ids, and records, each a window
    repeated a number of times in a row.  Expanding every record's
    window [repeat] times, in order, gives exactly the {!iter_spans}
    sequence.  Since consecutive spans are never address-contiguous,
    neither are a window's last span and its first one. *)

val program : Placement.Address_map.t -> t -> program
(** Decode the trace's spans under the map and fold them with a greedy
    tandem-repeat pass: at each position the window of period at most
    8 whose consecutive copies cover the most spans becomes one record,
    and spans that start no repeat are grouped into repeat-1 windows.
    Runs inside a [simulate] span, so its time counts as replay. *)

val iter_records : (int -> int -> unit) -> program -> unit
(** [iter_records f p] calls [f window repeat] once per record, in
    order. *)

(** {2 Stats} *)

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int

val dyn_insns : Placement.Address_map.t -> t -> int
(** Dynamic instruction fetches under the given address map (accounts for
    code scaling). *)

type stats = {
  st_runs : int;  (** maximal sequential-code runs *)
  st_blocks : int;
  st_raw_bytes : int;  (** plain code-vector footprint (8 bytes/block) *)
  st_stored_bytes : int;  (** bytes the compressed store actually holds *)
}

val stats : t -> stats
