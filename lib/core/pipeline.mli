(** The five-step IMPACT-I instruction placement pipeline:
    profiling -> inline expansion -> trace selection -> function layout ->
    global layout, yielding optimized and natural address maps. *)

open Ir

type t = {
  original : Prog.program;  (** after cleanups, before inlining *)
  original_profile : Vm.Profile.t;
  program : Prog.program;  (** after inline expansion *)
  profile : Vm.Profile.t;
      (** profile of [program] over the same inputs, derived
          ({!Inline.derive}) from the per-context counts of the run that
          made [original_profile], without running [program];
          physically [original_profile] when inlining and cleanup left
          the program unchanged *)
  inline_report : Inline.report;
  selections : Trace_select.t array;  (** per function of [program] *)
  layouts : Func_layout.t array;
  global : Global_layout.t;
  optimized : Address_map.t;
  natural : Address_map.t;
}

val run : Prog.program -> inputs:Vm.Io.input list -> t
(** CFG cleanups (folding, threading, unreachable sweep) run before
    profiling, and again after inlining.  The VM runs once, over the
    cleaned-up original program: one [profile] span per pipeline. *)

val no_inline : t -> t
(** The pipeline with the inlining step ablated: the layout steps alone
    on [original] and [original_profile], which become its [program] and
    [profile] (physically).  Runs no VM pass. *)

val map_of_profile : Prog.program -> Vm.Profile.t -> Strategy.t -> Address_map.t
(** Address map of [program] under a layout strategy, with every
    function's layout and the global order weighted by [profile]. *)

val map_for : t -> Strategy.t -> Address_map.t
(** Address map of the inlined program under any registered layout
    strategy, reusing the pipeline's profile.  For {!Strategy.impact}
    and {!Strategy.natural} the pipeline's stored maps are returned
    (physically shared, so memoization keyed on identity still works). *)
