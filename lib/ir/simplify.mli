(** Classic CFG cleanups: constant folding, branch/switch simplification
    on immediate conditions, jump threading through empty forwarding
    blocks, unreachable-block elimination with label compaction.

    Semantics-preserving.  Reachable-but-never-executed code is untouched
    (that dead code is what the layout algorithm pushes out of the
    effective region); blocks carrying size overrides are never threaded
    away. *)

val program : Prog.program -> Prog.program
