(** Classic CFG cleanups: constant folding, branch/switch simplification
    on immediate conditions, jump threading through empty forwarding
    blocks, unreachable-block elimination with label compaction.

    Semantics-preserving.  Reachable-but-never-executed code is untouched
    (that dead code is what the layout algorithm pushes out of the
    effective region); blocks carrying size overrides are never threaded
    away, and neither is a function's entry block.

    Every block that survives executes exactly as often as before: a
    dropped block either never runs or is an empty forwarder whose
    predecessors now jump past it, so its arcs fold into theirs. *)

val program : Prog.program -> Prog.program * Cfg.label array array
(** The simplified program, and per function the new label of each old
    label ([-1] for a dropped block), composed over the rounds.  A
    surviving block keeps its terminator with labels renamed, or has it
    folded to a [Jump]; an arc into a dropped forwarder lands where its
    source block's terminator now points. *)
