(** Static layout/cache-conflict linter: instant, simulation-free
    diagnosis of a placement from the CFG, the profile weights, the
    address map and the cache geometry alone.  Every finding is an
    {!Ir.Diag.t} with stage [Lint] (exit code 18).

    Passes, in [by_pass] order:

    - [flow] — profile flow conservation as a static lint (subsumes the
      corresponding part of [Placement.Validate]); errors.
    - [unreachable] — statically dead blocks ({!Ir.Cfg.reachable}) that either
      carry profile weight (an error: the profile disagrees with the
      CFG) or are placed inside the packed effective region (a warning:
      dead bytes pollute the hot footprint).
    - [hot-arc] — arcs at or above [min_prob] of both endpoint weights
      that the layout does not place as fall-throughs; warnings.
    - [loop-split] — natural loops ({!Loops}) whose body occupies more
      cache lines (or 4KB pages) than its byte size requires; warnings.
    - [set-conflict] — static cache-set conflict estimation: call-graph
      adjacent functions whose hot lines co-map to the same sets, the
      paper's "mapping conflict" made static; warnings, plus the
      aggregate {!report.conflict_score} used to rank strategies.
    - [absint] — sound cache-state classification ({!Absint}): weighted
      blocks with certified always-miss lines, analysis degradations,
      and the certified miss-count interval {!report.certified} that
      ranks strategies next to the heuristic conflict score. *)

open Ir

type input = {
  program : Prog.program;
  weights : int -> Placement.Weight.cfg_weights;
  calls : Placement.Weight.call_weights;
  profile : Vm.Profile.t option;  (** enables the [flow] pass *)
  map : Placement.Address_map.t;
  config : Icache.Config.t;
  strategy : string option;  (** tags every finding's diag context *)
  min_prob : float;
}

val of_pipeline :
  ?min_prob:float ->
  (* default {!Placement.Trace_select.default_min_prob} *)
  ?strategy:string ->
  Placement.Pipeline.t ->
  map:Placement.Address_map.t ->
  config:Icache.Config.t ->
  input
(** Lint input for a completed pipeline's program/profile under any of
    its strategy maps. *)

type finding = {
  pass : string;
  diag : Diag.t;
  score : float;
      (** pass-specific magnitude (broken arc weight, wasted lines x
          loop weight, calls x overlapping sets ...), for ranking *)
}

type report = {
  findings : finding list;
      (** errors first, then warnings by descending score *)
  by_pass : (string * int) list;  (** findings per pass, registry order *)
  conflict_score : float;
      (** sum over call-graph-adjacent function pairs of
          [calls(f,g) * overlapping-hot-sets(f,g) / nsets]; the static
          stand-in for the simulated conflict-miss ratio *)
  hot_arc_total : int;  (** total weight of hot arcs *)
  hot_arc_broken : int;  (** weight of hot arcs not placed fall-through *)
  certified : Absint.interval;
      (** sound miss-count interval under the profile weights
          ({!Absint.profile_interval}) *)
  absint_totals : Absint.totals;
  absint_gated : string option;  (** why everything is unclassified *)
}

val run : input -> report
(** Runs every pass inside a ["lint.<pass>"] span; no simulation
    anywhere on this path. *)

val errors : report -> Diag.t list
val warnings : report -> Diag.t list
