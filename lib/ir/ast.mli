(** Mini-C abstract syntax and the workload-authoring DSL.

    This is the stand-in for the IMPACT-I C front end: workloads are
    written as mini-C functions over a flat byte-addressable memory, then
    lowered by {!Lower} into the CFG form that the placement algorithm and
    the profiler consume. *)

type binop = Insn.binop

type expr =
  | Int of int
  | Var of string
  | Global of string  (** address of a global data object *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr  (** logical negation: 1 when the operand is 0 *)
  | Load8 of expr
  | Load32 of expr
  | Call of string * expr list
  | Intrin of Insn.intrinsic * expr list
  | And of expr * expr  (** short-circuit *)
  | Or of expr * expr  (** short-circuit *)
  | Cond of expr * expr * expr  (** ternary *)

type stmt =
  | Decl of string * expr
  | Assign of string * expr
  | Store8 of expr * expr  (** address, value *)
  | Store32 of expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of stmt list * expr * stmt list * stmt list
  | Switch of expr * (int list * stmt list) list * stmt list
      (** C-style switch with fall-through between cases; the final list is
          the default arm. *)
  | Break
  | Continue
  | Return of expr option
  | Expr of expr

type ginit =
  | Gbytes of string  (** raw byte image (no implicit terminator) *)
  | Gstring of string  (** NUL-terminated string *)
  | Gwords of int array  (** little-endian 32-bit words *)
  | Gzero of int  (** [n] zeroed bytes *)

type func = { name : string; params : string list; body : stmt list }

type program = {
  globals : (string * ginit) list;
  funcs : func list;
  entry : string;
}

val ginit_size : ginit -> int

val program_lines : program -> int
(** Approximate "C lines" of the program — the Table 2 [C lines] column. *)

(** Combinators for writing workloads.  Arithmetic/comparison operators
    carry a [%] suffix ([+%], [<%], …) to avoid clashing with stdlib
    integer operators. *)
module Dsl : sig
  val i : int -> expr
  val chr : char -> expr
  val v : string -> expr
  val g : string -> expr
  val ( +% ) : expr -> expr -> expr
  val ( -% ) : expr -> expr -> expr
  val ( *% ) : expr -> expr -> expr
  val ( /% ) : expr -> expr -> expr
  val ( %% ) : expr -> expr -> expr
  val ( &% ) : expr -> expr -> expr
  val ( |% ) : expr -> expr -> expr
  val ( ^% ) : expr -> expr -> expr
  val ( <<% ) : expr -> expr -> expr
  val ( >>% ) : expr -> expr -> expr
  val ( <% ) : expr -> expr -> expr
  val ( <=% ) : expr -> expr -> expr
  val ( >% ) : expr -> expr -> expr
  val ( >=% ) : expr -> expr -> expr
  val ( ==% ) : expr -> expr -> expr
  val ( <>% ) : expr -> expr -> expr
  val ( &&% ) : expr -> expr -> expr
  val ( ||% ) : expr -> expr -> expr
  val not_ : expr -> expr
  val neg : expr -> expr
  val ld8 : expr -> expr
  val ld32 : expr -> expr
  val call : string -> expr list -> expr
  val getc : expr -> expr
  val putc : expr -> expr -> stmt
  val stream_len : expr -> expr
  val arg : int -> expr
  val alloc : expr -> expr
  val decl : string -> expr -> stmt
  val set : string -> expr -> stmt
  val st8 : expr -> expr -> stmt
  val st32 : expr -> expr -> stmt
  val if_ : expr -> stmt list -> stmt list -> stmt
  val when_ : expr -> stmt list -> stmt
  val while_ : expr -> stmt list -> stmt
  val do_while : stmt list -> expr -> stmt
  val for_ : stmt list -> expr -> stmt list -> stmt list -> stmt
  val switch : expr -> (int list * stmt list) list -> stmt list -> stmt
  val break_ : stmt
  val continue_ : stmt
  val ret : expr -> stmt
  val ret0 : stmt
  val expr : expr -> stmt
  val incr_ : string -> stmt
  val decr_ : string -> stmt
  val func : string -> string list -> stmt list -> func
end
