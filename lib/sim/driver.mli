(** Trace-driven simulation driver: replays a stored trace through an
    address map into cache configurations, computing the paper's
    metrics. *)

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
(** Span-fused sweep: walks the trace once as maximal
    address-contiguous spans ({!Trace.iter_spans}) and advances every
    configuration's cache, timers and run bookkeeping in the same pass,
    with one {!Icache.Cache.access_run} per span per configuration (one
    tag probe per cache block touched).  Bit-identical to {!reference}
    per configuration.

    When a default {!Placement.Pool} with more than one lane is set, the
    configuration list is partitioned into contiguous chunks (one per
    lane) simulated on separate domains, each re-walking the trace;
    results are concatenated back in input order, so the output is
    bit-identical to the serial sweep. *)

val reference :
  Icache.Config.t ->
  Placement.Address_map.t ->
  Trace.t ->
  result
(** Word-granular reference: one {!Icache.Cache.access} per instruction
    fetch.  The oracle {!simulate} is checked against, in the tests and
    by the differential fuzzer. *)
