(** Differential layout fuzzer: seeded random programs are pushed
    through lowering, the VM and its profiler, the full placement
    pipeline, every registered layout strategy, the static linter and a
    cache simulation, checking all pipeline invariants plus
    cross-strategy layout invariance (and that {!Analysis.Lint} neither
    crashes nor finds error-severity contradictions on any strategy's
    map).  Each fast engine is checked against its reference in the
    [oracle] library: the VM, the profiler, the simulation sweep and
    the abstract-interpretation bounds.  Failures are
    shrunk to a minimal reproducer (the shrink predicate keeps the
    first violation in its original stage) and carry the generating
    seed. *)

type failure = {
  seed : int;
  size : int;
  diags : Ir.Diag.t list;  (** violations of the generated program *)
  shrunk : Ir.Ast.program;  (** minimal reproducer *)
  shrunk_diags : Ir.Diag.t list;  (** violations it still exhibits *)
  shrink_steps : int;
}

val report_failure : failure Fmt.t
(** Violations, shrunk reproducer (lowered IR when it lowers), and the
    command line that replays the seed. *)

val run :
  ?size:int ->
  ?strategies:Placement.Strategy.t list ->
  ?log:(string -> unit) ->
  first_seed:int ->
  count:int ->
  unit ->
  failure list
(** Fuzz [count] consecutive seeds.  Seeds are checked over the default
    {!Placement.Pool}; the failing ones are then shrunk and logged
    serially in seed order, followed by one summary line.  Failures,
    reports and log lines are identical at any lane count. *)
