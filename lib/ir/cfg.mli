(** Basic blocks and control-flow terminators.

    Calls terminate their block and carry an explicit return continuation,
    so every control transfer — branch path or call site — is an explicit
    arc, exactly the structure the paper's weighted control graph and
    weighted call graph are built over. *)

type label = int
(** Block index within a function; the entry block is label [0]. *)

type term =
  | Jump of label
  | Br of Insn.operand * label * label
      (** [Br (c, t, f)]: to [t] when [c <> 0], else [f]. *)
  | Switch of Insn.operand * (int * label) array * label
      (** Value-indexed dispatch with a default target. *)
  | Ret of Insn.operand option
  | Call of {
      callee : string;
      args : Insn.operand list;
      dst : Insn.reg option;
      ret_to : label;
    }

type block = {
  insns : Insn.t array;
  term : term;
  size_override : int option;
      (** When set, the block occupies this many instruction slots for
          layout/trace purposes — used by the code-scaling experiment
          (paper §4.2.3). *)
}

val mk_block : ?size_override:int -> Insn.t array -> term -> block

val instr_count : block -> int
(** Instruction slots occupied: straight-line instructions plus one
    terminator instruction, unless overridden for code scaling. *)

val byte_size : block -> int
(** [instr_count * Insn.bytes_per_insn]. *)

val successors : block -> label list
(** Intra-function successors, deduplicated, in terminator order.  A call's
    only intra-function successor is its return continuation. *)

val reachable : block array -> bool array
(** Blocks reachable from the entry block (label [0]).  This is the
    canonical definition of a statically dead block: the simplifier's
    unreachable sweep and the layout linter's [unreachable] pass both
    call it.  Labels out of range never appear — run
    {!Check} first on untrusted input. *)

val callee : block -> string option
(** Callee name when the block ends in a call. *)

val map_term_labels : (label -> label) -> term -> term
val map_term_regs : (Insn.reg -> Insn.reg) -> term -> term

val max_reg_of_block : block -> int
(** Highest register index mentioned anywhere in the block, [-1] if none. *)
