(** Matching interpreter: the loop the VM used before it became
    translate-then-run.  Every instruction is matched on its
    {!Ir.Insn.t} constructor and every terminator on its
    {!Ir.Cfg.term}; it counts into the same per-run shapes, calls
    [block_sink] at the same points and raises the VM's own exceptions
    with the same messages, so {!same_as_oracle} can compare it with
    {!Vm.Interp.run} run for run. *)

type outcome = {
  value : int;
  totals : int list;  (** dyn_insns, dyn_blocks, dyn_calls, dyn_branches *)
  outputs : string list;  (** every output stream *)
  block_counts : int array list;  (** per function, per block *)
  arcs : (int * int * int * int) list;
      (** [fid src dst count], in first-taken order *)
  calls : (int * int * int * int) list;
      (** [fid block callee count], in first-call order *)
}
(** Everything a run shows its caller. *)

val same_as_oracle :
  ?fuel:int ->
  Ir.Prog.program ->
  Vm.Io.input ->
  ((outcome, string) result, string) result
(** Run the oracle, then {!Vm.Interp.run}, on one input.  [Ok run] when
    the two agree on the block stream and on every field of {!outcome},
    or raise the same exception with the same message: [run] is the
    oracle's outcome, or [Error] with the printed exception.
    [Error what] names the first thing that differs, e.g.
    ["block counts"]. *)
