(** Shared experiment context: per benchmark, the placement pipeline, the
    recorded traces, derived address maps (one memoized table covering
    every registered layout strategy), and memoized cache simulation
    results — computed lazily and at most once, since every table draws
    on the same artifacts.

    Every getter below is safe to call from any domain: each entry
    serializes its own construction behind a mutex.  So an experiment
    that maps over the entries with {!Placement.Pool.map_default} gets
    its results in entry order, bit-identical to its serial run. *)

type cached = { result : Sim.Driver.result; mutable last_used : int }
(** A memoized simulation result with its LRU stamp. *)

type interned = {
  map : Placement.Address_map.t;
  id : int;
  mutable programs : (int * Sim.Trace.program) list;
      (** trace id -> the map's span program over that trace
          ({!Sim.Trace.program}), built by the first {!simulate_many}
          that replays the pair and dropped with the map *)
}
(** An interned address map. *)

type entry = {
  bench : Workloads.Bench.t;
  lock : Mutex.t;  (** guards every mutable/lazy field of the entry *)
  memo_cap : int option;
      (** LRU bound on memoized simulation results; [None] = unbounded *)
  strategy_cap : int option;  (** LRU bound on memoized strategy maps *)
  mutable memo_tick : int;
  mutable memo_evicted : int;
      (** memo + strategy-map evictions in this entry; unlike the global
          {!memo_evictions} counter this is per-context state, live even
          with the metrics registry off — what a resident service
          reports in its own stats *)
  pipeline : Placement.Pipeline.t Lazy.t;
  pipeline_noinline : Placement.Pipeline.t Lazy.t;
  trace : Sim.Trace.t Lazy.t;
  original_trace : Sim.Trace.t Lazy.t;
  lazy_original_map : Placement.Address_map.t Lazy.t;
  absint_program : Analysis.Absint.program Lazy.t;
  mutable strategy_maps : (string * Placement.Address_map.t) list;
  mutable warnings : Ir.Diag.t list;
  mutable scaled_maps : (float * Placement.Address_map.t) list;
  mutable map_ids : interned list;
      (** interned maps and their span programs; with [memo_cap] set,
          only those some memoized result still references *)
  mutable next_map_id : int;  (** monotone: an id is never reissued *)
  mutable trace_ids : (Sim.Trace.t * int) list;
  sim_cache : (int * int * Icache.Config.t, cached) Hashtbl.t;
}

type t = entry list

val create :
  ?scale:int ->
  ?memo_cap:int ->
  ?strategy_cap:int ->
  ?names:string list ->
  unit ->
  t
(** Default: the full ten-benchmark suite at scale 1.  [scale] > 1
    substitutes the scaled-up workload variants of
    {!Workloads.Registry.suite}.

    [memo_cap] / [strategy_cap] (default unbounded, right for one-shot
    CLI runs) bound the per-entry simulation memo and strategy-map
    tables with LRU eviction — what a long-running service sets so its
    resident contexts cannot grow without bound.  Evictions are counted
    in {!memo_evictions}.  Both must be [>= 1] ([Invalid_argument]
    otherwise). *)

val entries : t -> entry list

val reset : t -> t
(** The same benchmarks with every memo emptied: new entries that share
    the pipelines, traces, original map and prepared program (forced or
    not), with no strategy, scaled or interned maps (so no span
    programs), no simulation results, no warnings and a zeroed eviction
    count.  Tables regenerated from them are byte-identical.  Each new
    entry has a lock of its own, so use the old and the new entries from
    one domain at a time: a shared lazy is forced under either lock. *)

val find : t -> string -> entry
(** Raises [Workloads.Registry.Unknown_benchmark]. *)

val name : entry -> string
val pipeline : entry -> Placement.Pipeline.t
val pipeline_noinline : entry -> Placement.Pipeline.t
val trace : entry -> Sim.Trace.t
val original_trace : entry -> Sim.Trace.t
val optimized_map : entry -> Placement.Address_map.t
val natural_map : entry -> Placement.Address_map.t

val original_map : entry -> Placement.Address_map.t
(** Natural layout of the pre-inlining program: the fully unoptimized
    baseline.  Memoized. *)

val absint_program : entry -> Analysis.Absint.program
(** {!Analysis.Absint.prepare} of the inlined program, built once per
    entry: every static analysis of the entry (lint, certified bounds,
    E19) shares it. *)

val strategy_map : entry -> Placement.Strategy.t -> Placement.Address_map.t
(** Address map of the inlined program under a registered layout
    strategy, via {!Placement.Pipeline.map_for}.  Memoized per strategy
    id; for {!Placement.Strategy.impact} / {!Placement.Strategy.natural}
    the returned map is physically the pipeline's own.

    A strategy that raises never aborts the caller: the failure is
    recorded as a [Strategy]-stage warning on the entry and the natural
    layout is substituted — check {!fell_back} / {!warnings}. *)

val warnings : entry -> Ir.Diag.t list
(** Degradation warnings recorded so far, oldest first. *)

val fell_back : entry -> string -> bool
(** [fell_back e id]: did {!strategy_map} substitute the natural layout
    for strategy [id] because it raised? *)

val scaled_map : entry -> float -> Placement.Address_map.t
(** Address map for the code-scaling experiment (Table 9): the inlined
    program scaled by the factor and re-laid-out with the same trace
    selection and orderings.  Memoized per factor. *)

val simulate :
  entry ->
  Icache.Config.t ->
  Placement.Address_map.t ->
  Sim.Trace.t ->
  Sim.Driver.result
(** Trace-driven simulation, memoized per (map, trace, config) in a
    hashtable keyed on interned map/trace ids: design points shared
    between tables are simulated exactly once and lookups stay O(1) no
    matter how many results accumulate.  Maps and traces are keyed by
    physical identity — use the memoized getters above so repeated calls
    share one map. *)

val simulate_many :
  entry ->
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Sim.Trace.t ->
  Sim.Driver.result list
(** Like {!simulate} for several configurations at once: every uncached
    configuration is replayed from the map's span program over the trace
    ({!Sim.Driver.replay}).  The program is built once per interned map
    and trace, by the first call that has a configuration to simulate,
    and kept on the map's {!interned} entry. *)

(** {2 Telemetry} *)

val strategy_fallbacks : Obs.Metrics.counter
(** Strategies that raised and degraded to the natural layout. *)

val memo_evictions : Obs.Metrics.counter
(** Memoized simulation results and strategy maps dropped by the LRU
    caps. *)
