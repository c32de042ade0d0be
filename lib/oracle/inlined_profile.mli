(** A VM pass over the program an inlining pipeline ships, the oracle of
    {!Placement.Inline.derive}, which makes the same counts, and so the
    same profile, from the original run's per-context counts without
    running the inlined program. *)

val same_as_oracle :
  ?config:Placement.Inline.config ->
  Ir.Prog.program ->
  Vm.Io.input list ->
  (unit, string) result
(** Run the pipeline's first two steps on the program (cleanup, one
    VM pass, inline rounds under [config], cleanup), then compare the
    counts derived for the shipped program with a VM pass over it on the
    same inputs, in every field: the profiles'
    {!Transfer_profile.same_tables} (every hash table in its
    [Hashtbl.fold] order) and calling-context trees (structurally), then
    every context's transfers and the first-taken log, as the
    {!Vm.Interp.iter_events} sequence.  [Error what] names the first
    that differs. *)
