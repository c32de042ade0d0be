(** Inline rounds with a VM pass per round: the loop
    {!Placement.Inline.expand} ran before it derived every round's
    counts from one calling-context tree.  {!same_as_oracle} checks
    {!Placement.Inline.round_counts} against it round by round. *)

val aggressive : Placement.Inline.config
(** Inline every executed site that fits a five-fold growth budget: the
    default thresholds (100 calls) almost never fire on a generated
    program. *)

val expand :
  ?config:Placement.Inline.config ->
  Ir.Prog.program ->
  inputs:Vm.Io.input list ->
  Ir.Prog.program * Placement.Inline.report
(** The reference expansion: every round profiles the program it starts
    from over [inputs]. *)

val same_as_oracle :
  ?config:Placement.Inline.config ->
  Ir.Prog.program ->
  Vm.Io.input list ->
  (unit, string) result
(** Run the reference rounds and, at every round, compare the counts
    derived from the original program's profile with the round's VM
    counts: [site_counts] as a sorted list, and [dyn_calls].  Then
    compare {!Placement.Inline.expand}'s program and report with the
    reference's.  [Error what] names the first round and count that
    differ. *)
