(** Differential layout fuzzer: seeded random programs are pushed
    through lowering, the full placement pipeline, every registered
    layout strategy, the static linter and a cache simulation, checking
    all pipeline invariants plus cross-strategy layout invariance (and
    that {!Analysis.Lint} neither crashes nor finds error-severity
    contradictions on any strategy's map).  Failures are
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
  ?pool:Placement.Pool.t ->
  first_seed:int ->
  count:int ->
  unit ->
  failure list
(** Fuzz [count] consecutive seeds, logging progress and failures.  With
    a multi-lane [pool], seeds are checked in parallel and the failing
    ones shrunk serially in seed order — the returned failures and their
    reports are identical to the serial campaign's; only the progress
    cadence differs. *)
