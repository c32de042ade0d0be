(** Block-stream capture: the packed block code and the VM-to-consumer
    stream every recorded trace is built from.

    A run is captured as the sequence of executed basic blocks, each a
    (function id, label) pair packed into one int.  The sequence is
    layout-independent: replaying it against different address maps and
    cache configurations expands each block into instruction-fetch
    addresses without re-running the interpreter. *)

open Ir

exception Too_many_blocks of string

val pack : int -> Cfg.label -> int
val unpack_fid : int -> int
val unpack_label : int -> Cfg.label

type sink = int -> Cfg.label -> unit
(** A block consumer: [sink fid label] receives every executed block in
    execution order.  Under an address map each block is one [(base,
    len)] fetch run, so a sink is exactly a push-based fetch-run
    consumer. *)

val stream :
  ?fuel:int -> Prog.program -> Vm.Io.input -> sink:sink -> Vm.Interp.result
(** Execute and push every block straight into [sink] with no
    intermediate buffer.  Raises {!Too_many_blocks} if a function exceeds
    the packing capacity (2^20 blocks). *)
