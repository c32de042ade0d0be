(** Seeded random mini-C program generator and AST shrinker, shared by
    the differential tests and the layout fuzzer.  Generated programs
    terminate by construction and write observable output. *)

open Ir

val generate : ?size:int -> int -> Ast.program
(** Generate a whole program from a seed; [size] scales the fuel.  The
    same seed always yields the same program. *)

val generate_deep : ?size:int -> int -> Ast.program
(** Like {!generate}, with what its programs never reach: in [main],
    at least one counted loop of 100 to 400 iterations, never one
    inside another, that breaks out part-way through an iteration after
    50 or more; and calls from [main] to a recursive function [walk]
    whose depth argument is below 8.  Loop repeats outrun the trace
    folder's lookahead and break mid-copy, and one function's frames
    nest. *)

val shrink :
  Ast.program ->
  still_fails:(Ast.program -> bool) ->
  Ast.program * int
(** Greedily apply candidate reductions on which [still_fails] holds, to
    a fixed point or at most 400 steps; returns the minimal reproducer
    and the number of reduction steps taken. *)

val observe : Prog.program -> int * string
(** Observable behaviour of a lowered program on the empty input: the
    VM's return value and stream-0 output.  A transformation that
    preserves semantics preserves this pair. *)
