(** E19 and the [impact absint] backend: sound static cache bounds
    ({!Analysis.Absint}) next to the paper-§5 heuristic estimate and
    the simulated truth. *)

open Analysis

val interval_json : Absint.interval -> Obs.Json.t
val totals_json : Absint.totals -> Obs.Json.t

(** {2 impact absint (simulation-free, profile-weighted)} *)

type result = {
  bench : string;
  strategy : Placement.Strategy.t;
  fell_back : bool;
  config : Icache.Config.t;
  totals : Absint.totals;
  certified : Absint.interval;  (** under the profile weights *)
  gated : string option;
  consistent : bool;
  scopes : int;
  must_iterations : int;
  may_iterations : int;
}

val sweep :
  ?config:Icache.Config.t ->
  ?strategies:Placement.Strategy.t list ->
  Context.t ->
  result list
(** Every (entry, strategy) at one config, pool-parallel over entries;
    results in entry-major registry order. *)

val summary : result -> string

val report_json : results:result list -> Obs.Json.t
(** Top-level [impact.absint/v1] document. *)

(** {2 E19 table} *)

val table : Context.t -> Report.Table.t
