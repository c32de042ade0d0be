(* Abstract RISC-like instruction set. Every instruction occupies
   [bytes_per_insn] bytes of instruction memory, matching the paper's
   fixed-format 32-bit encoding ("4 machine instructions (4 bytes each)"
   per average basic block). *)

type reg = int

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

(* VM intrinsics stand in for system calls: they execute in "kernel space"
   and contribute a single trap instruction to the fetch stream, but their
   internals are never traced -- matching the paper's exclusion of kernel
   code from the dynamic traces. *)
type intrinsic =
  | Getc (* [stream] -> byte or -1 at end of stream *)
  | Putc (* [stream; byte] -> 0 *)
  | Stream_len (* [stream] -> length in bytes *)
  | Arg (* [i] -> i-th program argument (0 when absent) *)
  | Alloc (* [n] -> address of n fresh zeroed bytes *)
  | Abort (* [] -> raises a VM fault *)

type t =
  | Mov of reg * operand
  | Bin of binop * reg * operand * operand
  | Load8 of reg * operand * operand (* dst <- byte [base + off] *)
  | Load32 of reg * operand * operand (* dst <- word [base + off] *)
  | Store8 of operand * operand * operand (* [base + off] <- low byte of v *)
  | Store32 of operand * operand * operand (* [base + off] <- v *)
  | Intrin of intrinsic * reg option * operand list

let bytes_per_insn = 4

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let intrinsic_name = function
  | Getc -> "getc"
  | Putc -> "putc"
  | Stream_len -> "stream_len"
  | Arg -> "arg"
  | Alloc -> "alloc"
  | Abort -> "abort"

(* Integer semantics of a binary operator; division and remainder by zero
   are the caller's responsibility to fence. *)
let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 31)
  | Shr -> a asr (b land 31)
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let map_operand_regs f = function
  | Reg r -> Reg (f r)
  | Imm _ as o -> o

(* Rewrite every register (read or written) through [f]; used when splicing
   a callee body into a caller during inline expansion. *)
let map_regs f insn =
  let m = map_operand_regs f in
  match insn with
  | Mov (d, o) -> Mov (f d, m o)
  | Bin (op, d, a, b) -> Bin (op, f d, m a, m b)
  | Load8 (d, a, b) -> Load8 (f d, m a, m b)
  | Load32 (d, a, b) -> Load32 (f d, m a, m b)
  | Store8 (a, b, v) -> Store8 (m a, m b, m v)
  | Store32 (a, b, v) -> Store32 (m a, m b, m v)
  | Intrin (intr, d, args) ->
    Intrin (intr, Option.map f d, List.map m args)

let max_reg_of_operand = function
  | Reg r -> r
  | Imm _ -> -1

let max_reg insn =
  let m = max_reg_of_operand in
  match insn with
  | Mov (d, o) -> max d (m o)
  | Bin (_, d, a, b) -> max d (max (m a) (m b))
  | Load8 (d, a, b) | Load32 (d, a, b) -> max d (max (m a) (m b))
  | Store8 (a, b, v) | Store32 (a, b, v) -> max (m a) (max (m b) (m v))
  | Intrin (_, d, args) ->
    let d = match d with Some r -> r | None -> -1 in
    List.fold_left (fun acc o -> max acc (m o)) d args
