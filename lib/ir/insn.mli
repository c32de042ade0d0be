(** Abstract RISC-like instruction set.

    The reproduction models the paper's target machine: a fixed-format
    32-bit instruction encoding where each instruction occupies
    {!bytes_per_insn} bytes of instruction memory.  Only the {e size} of
    instructions matters to the placement algorithm and cache simulation;
    the operational semantics matter to the profiler/interpreter that
    generates dynamic traces. *)

type reg = int
(** Virtual register index.  Registers are function-local; parameters
    occupy registers [0 .. nparams-1]. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type operand =
  | Reg of reg
  | Imm of int

(** VM intrinsics stand in for system calls: a single trap instruction in
    the fetch stream, internals never traced (the paper excludes kernel
    code from its dynamic traces). *)
type intrinsic =
  | Getc  (** [stream] -> next byte of input stream, or -1 at end *)
  | Putc  (** [stream; byte] -> 0; appends to an output stream *)
  | Stream_len  (** [stream] -> stream length in bytes *)
  | Arg  (** [i] -> i-th program argument, 0 when absent *)
  | Alloc  (** [n] -> address of [n] fresh zeroed bytes *)
  | Abort  (** raises a VM fault *)

type t =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Load8 of reg * operand * operand  (** [dst <- byte mem[base+off]] *)
  | Load32 of reg * operand * operand  (** [dst <- word mem[base+off]] *)
  | Store8 of operand * operand * operand
      (** [mem[base+off] <- low byte of v] *)
  | Store32 of operand * operand * operand  (** [mem[base+off] <- v] *)
  | Intrin of intrinsic * reg option * operand list

val bytes_per_insn : int
(** Fixed instruction width in bytes (4). *)

val binop_name : binop -> string
val intrinsic_name : intrinsic -> string

val eval_binop : binop -> int -> int -> int
(** Integer semantics.  [Div]/[Rem] by zero raise [Division_by_zero]. *)

val map_operand_regs : (reg -> reg) -> operand -> operand

val map_regs : (reg -> reg) -> t -> t
(** Rewrite every register (read or written) through the function; used
    when splicing a callee body into a caller during inline expansion. *)

val max_reg : t -> int
(** Highest register index mentioned by the instruction, [-1] if none. *)
