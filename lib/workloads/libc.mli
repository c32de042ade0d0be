(** A small C library written in the workload DSL: ctype tests, string and
    memory routines, number/string output, line input, hashing.

    Every benchmark links the whole library, so library code appears in
    dynamic traces (as in the paper) and unused functions become the
    zero-weight code the layout pushes out of the effective region. *)

val link :
  ?globals:(string * Ir.Ast.ginit) list ->
  entry:string ->
  Ir.Ast.func list ->
  Ir.Ast.program
(** [link ~globals ~entry workload_funcs] assembles a complete program:
    the workload's globals and functions plus the library. *)

val surface : count:int -> Ir.Ast.func list
(** [count] generated buffer routines (digest / blend / scan shapes) for
    the scaled workload variants; not part of {!funcs} or {!link} — only
    scaled programs ({!Scale.apply}) carry them. *)
