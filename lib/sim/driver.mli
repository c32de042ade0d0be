(** Trace-driven simulation driver: replays a stored trace through an
    address map into cache configurations, computing the paper's
    metrics.  One sweep engine, {!replay}, walks the trace's span
    program under the map ({!Trace.program}) and skips each repeated
    window's copies once one copy hits throughout; {!reference} is the
    word-granular oracle it is checked against. *)

type result = {
  config : Icache.Config.t;
  accesses : int;
  misses : int;
  words_fetched : int;
  miss_ratio : float;
  traffic_ratio : float;
  avg_fetch_words : float;  (** Table 8 [avg.fetch] *)
  avg_exec_insns : float;  (** Table 8 [avg.exec] *)
  eat_blocking : float;  (** effective access time, cycles per fetch *)
  eat_streaming : float;
  eat_streaming_partial : float;
}

val simulate :
  Icache.Config.t list ->
  Placement.Address_map.t ->
  Trace.t ->
  result list
(** [simulate configs map trace] is
    [replay configs (Trace.program map trace)]. *)

val replay : Icache.Config.t list -> Trace.program -> result list
(** The sweep: replays a span program ({!Trace.program}) into every
    configuration, with one {!Icache.Cache.access_run} per span walked.
    A record's window is walked copy by copy until one copy misses
    nowhere; the record's remaining copies are then all hits that change
    no cache or run state, so they are accounted in bulk
    ({!Icache.Cache.skip_hits}).  Bit-identical to {!reference} per
    configuration.

    When a default {!Placement.Pool} with more than one lane is set,
    each configuration is its own pool task over the shared program;
    results come back in input order, bit-identical to the serial
    sweep. *)

val reference :
  Icache.Config.t ->
  Placement.Address_map.t ->
  Trace.t ->
  result
(** Word-granular reference: one {!Icache.Cache.access} per instruction
    fetch.  The oracle {!simulate} is checked against, in the tests and
    by the differential fuzzer. *)
