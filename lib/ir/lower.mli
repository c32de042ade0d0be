(** AST -> CFG lowering.

    Translation invariants:
    - every call terminates its basic block (explicit call arcs);
    - short-circuit logicals and ternaries become branch diamonds;
    - [switch] becomes a {!Cfg.term.Switch} terminator with C fall-through;
    - dead statements (after [return]/[break]/[continue]) become real but
      unreachable blocks, like dead code in a binary — these are exactly
      the zero-weight blocks the layout algorithm pushes to the bottom. *)

val globals_base : int
(** First address of the static data segment (addresses below it are
    unmapped, so 0 acts as a null pointer). *)

val program : Ast.program -> Prog.program
(** Lower a whole program.  Raises {!Diag.Fail} (stage [Lower], carrying
    the offending function and block) on unbound variables, unknown
    globals, or malformed control flow; raises [Prog.Unknown_function]
    if the entry point is missing. *)
