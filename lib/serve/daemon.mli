(** The fault-tolerant layout-service daemon.

    Newline-delimited `impact.serve/v1` JSON requests in, one response
    per request out, in input order.  Per-request isolation (any failure
    becomes a structured error response carrying the CLI exit-code
    taxonomy), per-request deadlines with typed timeout responses,
    bounded request size, bounded profile/memo/map growth with LRU
    eviction, and graceful degradation tiers.

    Read-only requests are dispatched in constant-width batches across
    the default {!Placement.Pool}; profile-upload, stats and shutdown
    are serial barriers.  Responses carry no wall-clock values and are
    emitted in input order, so `-j 1` and `-j N` runs of the same
    request stream are byte-identical. *)

type config = {
  deadline_ms : int;  (** default per-request deadline *)
  cheap_threshold_ms : int;
      (** deadlines at or below this admit only the cheapest strategy *)
  retry_base_ms : int;  (** floor of the [retry_after_ms] hint *)
  max_request_bytes : int;
      (** longer request lines are answered with a usage error *)
  max_batch : int;  (** pool batch width — constant, not lane-dependent *)
  profile_cap : int;  (** LRU bound on named profiles *)
  epoch_window : int;  (** live epochs per profile *)
  memo_cap : int;  (** per-bench simulation-memo LRU bound *)
  strategy_cap : int;  (** per-bench strategy-map LRU bound *)
  map_cap : int;
      (** LRU bound on custom-profile address maps, and separately on
          the per-geometry abstract interpretations of the cheap tier *)
  scale : int;  (** workload scale of the resident contexts *)
  benches : string list option;  (** [None] = the full suite *)
  extra_strategies : Placement.Strategy.t list;
      (** extra registry entries, resolved before the global registry —
          how the chaos harness injects a raising strategy *)
  slow_ms : int option;
      (** requests slower than this dump their span tree to the log
          (requires spans enabled); [None] disables the slow log *)
}

val default_config : config
(** The four caps, [epoch_window] and [max_batch] must be [>= 1]:
    {!create} raises [Invalid_argument] otherwise.  The caps bound
    {!Placement.Bounded} maps, so a hit refreshes its key and an insert
    past the cap evicts the least recently used one. *)

type t

val create : ?config:config -> unit -> t
(** Build the resident state: one {!Experiments.Context} entry per
    benchmark (pipelines and traces still lazy), an empty profile
    store, an empty map cache. *)

val context : t -> Experiments.Context.t
val store : t -> Store.t

val run_lines : t -> string list -> Obs.Json.t list
(** Run a request stream through the full batched serve loop (the same
    code path as {!serve_channels}) and return the emitted lines —
    responses in input order, with any staleness notifications
    interleaved right after the upload that caused them.  Stops early
    at a shutdown request; lines past it get no response. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve until EOF or a shutdown request; each response line is
    flushed as emitted.  Pending read-only requests are answered as soon
    as no further input is ready, so a client waiting on one response is
    never held for a batch to fill.  Lines are read through a bounded
    reader, so an over-long request costs its length in I/O but not in
    memory; it is answered with a usage error that carries its length,
    just as {!run_lines} answers it. *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix socket, serving connections sequentially until a
    shutdown request arrives.  A client disconnecting mid-stream ends
    that connection only.  The socket file is removed on exit. *)

val stopped : t -> bool

(** {2 Telemetry} *)

val map_evictions : Obs.Metrics.counter
(** Custom-profile address maps dropped by the LRU cap. *)

val latency_hist : string -> Obs.Metrics.histogram
(** Per-request-type wall-clock latency histogram
    [serve.latency.<type>.seconds]; ["all"] aggregates every type. *)
