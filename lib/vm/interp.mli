(** CFG interpreter: plain execution, execution profiling (via the
    per-context counters of a calling-context tree) and dynamic-trace
    generation all use this engine.

    Each {!run} first translates every block of the program into
    closures with operands, labels, successor slots and callees already
    resolved, then runs them; nothing but a tree the caller passes is
    shared between runs.  A fault is raised when its instruction
    executes, never at translation.

    Dynamic instruction counts honor {!Ir.Cfg.block.size_override}, so the
    code-scaling transform is reflected in the fetch stream without
    changing program semantics. *)

open Ir

exception Fault of string

type context = {
  id : int;  (** creation order in its tree: the root is 0 *)
  fid : int;  (** the function running in this context *)
  site : Cfg.label;
      (** the call block, in the parent context's function, that enters
          this context; -1 at the root *)
  mutable calls : int;  (** entries into this context *)
  callees : context option array;
      (** child contexts, indexed by the rank of their call block among
          [fid]'s call blocks in label order *)
}
(** A node of the calling-context tree (Ammons, Ball & Larus 1997): one
    node per distinct chain of call sites from the entry function, so a
    recursive call opens a new node at every depth. *)

type counts
(** A calling-context tree, what each context's function did in it, and
    the log of every (context, event slot) pair in the order it was
    first taken.  A block's event slots are its successor slots in
    terminator order (a [Br]'s true then false target, a [Switch]'s
    cases then its default, a call's return continuation), then one
    more for a call block, its entry into the callee, and for a [Ret]
    block, its return (to the caller, or out of the program).  Every
    execution of a block passes through exactly one of its successor
    slots, or its entry or return, so the slots count block executions
    too.  A run counts into fresh counts unless given some; runs that
    share counts sum into them, and the log then holds each pair once,
    at the first run that took it. *)

val empty : Prog.program -> counts
(** A tree with only its root (the entry function, no calls) and an
    empty log. *)

val program : counts -> Prog.program
(** The program counted. *)

val contexts : counts -> context
(** The root of the tree.  Each [Invoke] opens (or reuses) the child of
    the current node and its frame remembers the caller's node, which
    [Return] restores; the root is entered once per run. *)

val iter_events : counts -> (context -> Cfg.label -> int -> int -> unit) -> unit
(** [iter_events c f] calls [f node label k n] once per logged pair, in
    first-taken order: slot [k] of block [label] was taken [n] times in
    [node]. *)

val child : counts -> context -> Cfg.label -> context option
(** The child of a node called from one of its call blocks, if any. *)

val enter : counts -> context -> Cfg.label -> context
(** The child of a node called from its call block [label], created
    with the next id if absent. *)

val count : counts -> context -> Cfg.label -> int -> int -> unit
(** [count c node label k n] adds [n > 0] transfers through slot [k] of
    block [label] in [node], logging the pair if it is new. *)

val block_counts : counts -> int array array
(** Executions of every block, per function, summed over contexts. *)

val iter_arcs : counts -> (int -> Cfg.label -> Cfg.label -> int -> unit) -> unit
(** [iter_arcs c f] calls [f fid src dst n] once per successor slot taken,
    in first-taken order over the function's contexts; [n] is the number
    of transfers through the slot.  Slots of one block that share a
    target ([Br] with [t = f], a [Switch] with repeated targets) are
    reported separately.  The arc from a call block to its return
    continuation is taken when the call returns. *)

val iter_calls : counts -> (int -> Cfg.label -> int -> int -> unit) -> unit
(** [iter_calls c f] calls [f caller_fid block callee_fid n] once per call
    block that made a call, in first-call order; [n] is its number of
    calls. *)

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
  ?counts:counts ->
  Prog.program ->
  Io.input ->
  result
(** Execute the program to completion.  Raises {!Fault} on VM errors
    (division by zero, bad memory access, abort, fuel exhaustion — default
    fuel 2e9 instructions) and {!Ir.Prog.Unknown_function} when a call to
    an absent function executes.

    [counts] (default: {!empty}) are the counts the run adds to; they
    must be of this program.

    [block_sink fid label] is called for every executed block.  It is the
    push-based trace path: a sink streams fetch runs straight into a
    consumer (cache simulator, compressed trace builder) with no
    intermediate buffer, and costs one branch per block when absent. *)
