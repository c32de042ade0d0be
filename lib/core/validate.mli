(** Cross-layer invariant verifier: checks that every layout the
    pipeline emits is a semantics-preserving permutation of the program,
    reporting violations as structured {!Ir.Diag.t} values.

    [Cheap] covers structural, trace-selection, layout-permutation and
    address-map invariants; [Full] adds profile flow conservation.  The
    simulation cross-check lives in [Experiments.Validation] (it needs
    the sim layer). *)

open Ir

type level = Cheap | Full

val flow : Vm.Profile.t -> Diag.t list
(** Flow conservation of a completed profile: for every block,
    [weight = entries + sum(in-arcs)] (entries only at block 0) and
    [weight = sum(out-arcs)] unless the block returns. *)

val map :
  ?strategy:Strategy.t ->
  program:Prog.program ->
  weights:(int -> Weight.cfg_weights) ->
  Address_map.t ->
  Diag.t list
(** Address-map invariants: sizes preserved, aligned in-segment ranges,
    pairwise disjoint, total equal to the program byte size (a bijective
    permutation of the code bytes), plus the strategy's [entry_first]
    and [splits_dead_code] claims when a strategy is given. *)

val pipeline : ?level:level -> Pipeline.t -> Diag.t list
(** Validate every stage artifact of a completed pipeline run. *)
