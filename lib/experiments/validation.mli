(** Experiment-level invariant verifier: runs the placement-layer checks
    ({!Placement.Validate}) over a context entry and adds the sim-layer
    cross-checks — the dynamic instruction count of the recorded trace
    is invariant across every registered layout strategy, and a cache
    simulation accesses exactly that many instructions.

    Degradation warnings recorded on the entry (strategies that raised
    and fell back to the natural layout) are included in the returned
    list, so callers see them alongside hard violations. *)

type level = Placement.Validate.level = Cheap | Full

val check : ?level:level -> Context.t -> Ir.Diag.t list
(** Validate every entry of the context.  [Cheap] (default) covers
    structure, trace selection, layouts, every strategy's address map,
    and trace layout-invariance; [Full] adds profile flow conservation
    and the simulation access-count cross-check. *)
