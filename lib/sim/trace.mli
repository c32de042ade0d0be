(** The trace store: one recorded execution, held as a folded run
    program.

    A block is a (function id, label) pair packed into one int, and a
    run is a maximal sequence of consecutive packed codes.  The store
    keeps the distinct runs, the distinct windows of at most 16 run
    ids, and records, each a window repeated a number of times in a
    row.  The folder builds all three while the VM streams, so the
    trace is folded once; loops make it small (cmp's 600K runs fold to
    37 distinct runs, 21 windows and 4,271 records).  Expanding the
    records gives back the exact packed-code sequence.

    The store is layout-independent.  Each address map gets a
    translation of the fold ({!program}), in time proportional to the
    records and windows, not to the executed blocks. *)

open Ir

type t

exception Too_many_blocks of string

val pack : int -> Cfg.label -> int
val unpack_fid : int -> int
val unpack_label : int -> Cfg.label

(** {2 Construction} *)

val record : ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** Execute the program, streaming every block straight into the
    folding builder, so peak residency is the folded size.
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

val iter_windows : (int array -> unit) -> t -> unit
(** Each distinct window of the run program, as its run ids (1 to 16),
    in window id order. *)

val iter_spans : Placement.Address_map.t -> (int -> int -> unit) -> t -> unit
(** [iter_spans map f t] calls [f addr words] once per maximal
    address-contiguous span of the fetch stream under [map], in
    execution order: a run of executed blocks in which each block
    starts at the byte address where the previous one ended.  Zero-word
    blocks are skipped without breaking a span.  The spans cover
    exactly the words the per-block walk fetches, in the same order,
    and no span starts where the previous one ended.  It expands the
    map's translation ({!program}) and decodes no block. *)

(** {2 Span programs} *)

type program = private {
  span_addr : int array;  (** span id -> byte address *)
  span_words : int array;  (** span id -> words fetched *)
  windows : int array;  (** the distinct windows' span ids, back to back *)
  window_start : int array;
      (** window [w] is [windows.(window_start.(w))] to
          [windows.(window_start.(w + 1) - 1)], at least one id *)
  records : Bytes.t;  (** read with {!iter_records} *)
  nrecords : int;
  nspans : int;  (** spans the program expands to *)
}
(** The span stream of one trace under one map ({!iter_spans}): a table
    of its distinct [(addr, words)] spans, a table of distinct windows
    of span ids, and records, each a window repeated a number of times
    in a row.  Expanding every record's window [repeat] times, in
    order, gives exactly the {!iter_spans} sequence.  Since consecutive
    spans are never address-contiguous, neither are a repeated window's
    last span and its first one. *)

val program :
  ?attrs:(string * string) list -> Placement.Address_map.t -> t -> program
(** Translate the run program under the map: each distinct window into
    its maximal spans, walking its runs' blocks once, and each record
    into a few span-program records.  Where a window's or a record's
    last span ends at the next one's first, the two are merged, as the
    maximal stream has them: a repeated window that ends where it starts
    becomes a head, rotated copies and a tail.  Runs
    inside a [simulate] span, so its time counts as replay; the span
    carries [attrs] and the attributes [runs] and [windows] (the run
    program's distinct runs and windows), [records] and [spans] (the
    translation's). *)

val iter_records : (int -> int -> unit) -> program -> unit
(** [iter_records f p] calls [f window repeat] once per record, in
    order. *)

(** {2 Stats} *)

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int

val dyn_insns : Placement.Address_map.t -> t -> int
(** Dynamic instruction fetches under the given address map (accounts for
    code scaling): each distinct window's words times the copies the
    records make of it. *)

type stats = {
  st_runs : int;  (** maximal sequential-code runs *)
  st_blocks : int;
  st_raw_bytes : int;  (** plain code-vector footprint (8 bytes/block) *)
  st_stored_bytes : int;  (** bytes the folded store actually holds *)
}

val stats : t -> stats
