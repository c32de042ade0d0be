(** Backend of [impact lint]: run the static layout linter
    ({!Analysis.Lint}) over a context entry's pipeline under one or all
    registered layout strategies — sharing the memoized pipeline and
    strategy maps, and touching nothing on the simulation side — and
    render the outcome as text, a ranking table, or JSON. *)

type result = {
  bench : string;
  strategy : Placement.Strategy.t;
  fell_back : bool;  (** the strategy degraded to the natural layout *)
  report : Analysis.Lint.report;
  estimate : Sim.Estimate.result;
      (** the paper-§5 heuristic for the same map (profile arithmetic,
          still no simulation), so the JSON artifact carries all three
          predictors side by side *)
}

val lint_entry :
  ?min_prob:float ->
  Context.entry ->
  Placement.Strategy.t ->
  result
(** Lints one strategy's map at the 2KB/64B direct-mapped geometry of
    the strategy-comparison experiment (E17), so the static ranking can
    be read against its simulated miss ratios. *)

val sweep : ?min_prob:float -> Context.entry -> result list
(** One {!result} per registered strategy, registry order. *)

val ranking_table : string -> result list -> Report.Table.t
(** Sweep results of one benchmark as a ranking table, best layout
    first: ascending certified miss upper bound, ties broken by static
    conflict score, then broken-hot-arc weight, then registry order. *)

val summary : result -> string
(** One-line per-pass counts + aggregate scores. *)

val result_json : result -> Obs.Json.t

val report_json : results:result list -> Obs.Json.t
(** Top-level [impact.lint/v1] document. *)
