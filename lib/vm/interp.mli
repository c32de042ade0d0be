(** CFG interpreter: plain execution, execution profiling (via the
    per-run counters) and dynamic-trace generation all use this engine.

    Each {!run} first translates every block of the program into
    closures with operands, labels, successor slots and callees already
    resolved, then runs them; nothing is cached between runs.  A fault
    is raised when its instruction executes, never at translation.

    Dynamic instruction counts honor {!Ir.Cfg.block.size_override}, so the
    code-scaling transform is reflected in the fetch stream without
    changing program semantics. *)

open Ir

exception Fault of string

type counts
(** Dense per-run counters: executions of every block, transfers through
    every successor slot of every terminator (a [Br]'s true then false
    target, a [Switch]'s cases then its default, a call's return
    continuation), and the order in which slots and call blocks were
    first taken. *)

val block_count : counts -> int -> Cfg.label -> int
(** [block_count c fid label]: executions of the block in the run. *)

val iter_arcs : counts -> (int -> Cfg.label -> Cfg.label -> int -> unit) -> unit
(** [iter_arcs c f] calls [f fid src dst n] once per successor slot taken
    in the run, in first-taken order; [n] is the number of transfers
    through the slot.  Slots of one block that share a target ([Br] with
    [t = f], a [Switch] with repeated targets) are reported separately.
    The arc from a call block to its return continuation is taken when
    the call returns. *)

val iter_calls : counts -> (int -> Cfg.label -> int -> int -> unit) -> unit
(** [iter_calls c f] calls [f caller_fid block callee_fid n] once per call
    block that made a call in the run, in first-call order; [n] is its
    number of calls. *)

type result = {
  return_value : int;
  dyn_insns : int;  (** dynamic instruction fetches *)
  dyn_blocks : int;
  dyn_calls : int;  (** dynamic function calls *)
  dyn_branches : int;  (** control transfers other than call/return *)
  io : Io.t;  (** inspect outputs with {!Io.output} *)
  counts : counts;
}

val run :
  ?block_sink:(int -> Cfg.label -> unit) ->
  ?fuel:int ->
  Prog.program ->
  Io.input ->
  result
(** Execute the program to completion.  Raises {!Fault} on VM errors
    (division by zero, bad memory access, abort, fuel exhaustion — default
    fuel 2e9 instructions) and {!Ir.Prog.Unknown_function} when a call to
    an absent function executes.

    [block_sink fid label] is called for every executed block.  It is the
    push-based trace path: a sink streams fetch runs straight into a
    consumer (cache simulator, compressed trace builder) with no
    intermediate buffer, and costs one branch per block when absent. *)
