(* Mini-C abstract syntax.  Workloads are written in this language through
   the [Dsl] combinators; [Lower] turns it into the RISC-like CFG form.

   The language is deliberately C-shaped: function-scoped integer
   variables, byte/word loads and stores against a flat data memory,
   C-style switch with fall-through, break/continue, short-circuit
   logicals.  This is the stand-in for the IMPACT-I C front end. *)

type binop = Insn.binop

type expr =
  | Int of int
  | Var of string
  | Global of string (* address of a global data object *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr (* logical negation: 1 when operand is 0 *)
  | Load8 of expr
  | Load32 of expr
  | Call of string * expr list
  | Intrin of Insn.intrinsic * expr list
  | And of expr * expr (* short-circuit *)
  | Or of expr * expr (* short-circuit *)
  | Cond of expr * expr * expr (* ternary *)

type stmt =
  | Decl of string * expr
  | Assign of string * expr
  | Store8 of expr * expr (* address, value *)
  | Store32 of expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of stmt list * expr * stmt list * stmt list (* init; cond; step *)
  | Switch of expr * (int list * stmt list) list * stmt list
      (* cases carry C fall-through semantics; last list is default *)
  | Break
  | Continue
  | Return of expr option
  | Expr of expr

type ginit =
  | Gbytes of string (* raw byte image, e.g. a string (no implicit NUL) *)
  | Gstring of string (* NUL-terminated string *)
  | Gwords of int array (* little-endian 32-bit words *)
  | Gzero of int (* n zeroed bytes *)

type func = { name : string; params : string list; body : stmt list }

type program = {
  globals : (string * ginit) list;
  funcs : func list;
  entry : string;
}

let ginit_size = function
  | Gbytes s -> String.length s
  | Gstring s -> String.length s + 1
  | Gwords w -> 4 * Array.length w
  | Gzero n -> n

(* Approximate "C lines" of a program, for the Table 2 column: one line per
   statement plus brace/header lines for compound statements and function
   definitions, plus one line per global. *)
let rec stmt_lines = function
  | Decl _ | Assign _ | Store8 _ | Store32 _ | Break | Continue | Return _
  | Expr _ ->
    1
  | If (_, t, []) -> 2 + body_lines t
  | If (_, t, e) -> 4 + body_lines t + body_lines e
  | While (_, b) | Do_while (b, _) -> 2 + body_lines b
  | For (i, _, s, b) -> 2 + body_lines i + body_lines s + body_lines b
  | Switch (_, cases, default) ->
    2
    + List.fold_left (fun acc (_, b) -> acc + 1 + body_lines b) 0 cases
    + (match default with [] -> 0 | b -> 1 + body_lines b)

and body_lines stmts = List.fold_left (fun acc s -> acc + stmt_lines s) 0 stmts

let func_lines f = 2 + body_lines f.body

let program_lines p =
  List.length p.globals
  + List.fold_left (fun acc f -> acc + func_lines f) 0 p.funcs

module Dsl = struct
  (* Combinators for writing workloads.  Operators carry a [%] suffix to
     avoid clashing with stdlib arithmetic. *)

  let i n = Int n
  let chr c = Int (Char.code c)
  let v name = Var name
  let g name = Global name
  let ( +% ) a b = Bin (Insn.Add, a, b)
  let ( -% ) a b = Bin (Insn.Sub, a, b)
  let ( *% ) a b = Bin (Insn.Mul, a, b)
  let ( /% ) a b = Bin (Insn.Div, a, b)
  let ( %% ) a b = Bin (Insn.Rem, a, b)
  let ( &% ) a b = Bin (Insn.And, a, b)
  let ( |% ) a b = Bin (Insn.Or, a, b)
  let ( ^% ) a b = Bin (Insn.Xor, a, b)
  let ( <<% ) a b = Bin (Insn.Shl, a, b)
  let ( >>% ) a b = Bin (Insn.Shr, a, b)
  let ( <% ) a b = Bin (Insn.Lt, a, b)
  let ( <=% ) a b = Bin (Insn.Le, a, b)
  let ( >% ) a b = Bin (Insn.Gt, a, b)
  let ( >=% ) a b = Bin (Insn.Ge, a, b)
  let ( ==% ) a b = Bin (Insn.Eq, a, b)
  let ( <>% ) a b = Bin (Insn.Ne, a, b)
  let ( &&% ) a b = And (a, b)
  let ( ||% ) a b = Or (a, b)
  let not_ e = Not e
  let neg e = Neg e
  let ld8 a = Load8 a
  let ld32 a = Load32 a
  let call f args = Call (f, args)
  let getc s = Intrin (Insn.Getc, [ s ])
  let putc s b = Expr (Intrin (Insn.Putc, [ s; b ]))
  let stream_len s = Intrin (Insn.Stream_len, [ s ])
  let arg n = Intrin (Insn.Arg, [ Int n ])
  let alloc n = Intrin (Insn.Alloc, [ n ])
  let decl name e = Decl (name, e)
  let set name e = Assign (name, e)
  let st8 addr value = Store8 (addr, value)
  let st32 addr value = Store32 (addr, value)
  let if_ c t e = If (c, t, e)
  let when_ c t = If (c, t, [])
  let while_ c b = While (c, b)
  let do_while b c = Do_while (b, c)
  let for_ init cond step body = For (init, cond, step, body)
  let switch e cases default = Switch (e, cases, default)
  let break_ = Break
  let continue_ = Continue
  let ret e = Return (Some e)
  let ret0 = Return None
  let expr e = Expr e
  let incr_ name = Assign (name, Bin (Insn.Add, Var name, Int 1))
  let decr_ name = Assign (name, Bin (Insn.Sub, Var name, Int 1))
  let func name params body = { name; params; body }
end
