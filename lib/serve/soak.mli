(** Soak harness: a seeded chaos-weighted workload driven through the
    daemon for a wall-clock duration, with live telemetry on and memory
    asserted under a ceiling.

    The preamble registers a subscribe-all client, seeds a
    flow-conserving profile and caches one layout against it; each
    round then replays the chaos mix plus a layout on the soak profile,
    advancing its epoch every third round so push staleness
    notifications actually flow.  Memory (OCaml live words, RSS) is
    sampled each interval into the [serve.live_words] and
    [serve.rss_bytes] gauges.  The report is the [impact.soak/v1]
    document; a non-empty [violations] means the service contract broke
    under sustained load. *)

type config = {
  seed : int;
  duration_s : float;
  interval_s : float;  (** memory sampling period *)
  ceiling_bytes : int;  (** max OCaml live bytes tolerated *)
  round_requests : int;  (** chaos requests per round *)
  daemon : Daemon.config;
}

val default_config : unit -> config
(** 30 s, 1 s sampling, a 512 MiB live ceiling, 24 chaos requests per
    round, over {!Chaos.default_config}. *)

type report = {
  seed : int;
  duration_s : float;  (** actually elapsed *)
  rounds : int;
  requests : int;
  responses : int;
  notifications : int;
  ok : int;
  errors : int;
  timeouts : int;
  latency_all : Obs.Metrics.histogram;
  latency_layout : Obs.Metrics.histogram;
  memory_samples : int;
  max_live_bytes : int;
  max_rss_bytes : int;
  ceiling_bytes : int;
  evictions_profiles : int;
  evictions_maps : int;
      (** custom-profile maps this daemon evicted, as its stats report *)
  violations : string list;
}

val run : ?config:config -> unit -> report
(** Run the soak.  Forces the metrics registry on for the duration
    (restored after); caps span retention when tracing is enabled. *)

val report_json : report -> Obs.Json.t
(** The [impact.soak/v1] document. *)

val summary : report -> string
