(** Seeded random mini-C program generator and AST shrinker, shared by
    the differential tests and the layout fuzzer.  Generated programs
    terminate by construction and write observable output. *)

val generate : ?size:int -> int -> Ast.program
(** Generate a whole program from a seed; [size] scales the fuel. *)

val shrink :
  Ast.program ->
  still_fails:(Ast.program -> bool) ->
  Ast.program * int
(** Greedily apply candidate reductions on which [still_fails] holds, to
    a fixed point or at most 400 steps; returns the minimal reproducer
    and the number of reduction steps taken. *)
