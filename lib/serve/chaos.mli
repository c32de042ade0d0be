(** Fault-injection harness for the layout service, and the one checker
    of its serve contract.

    A campaign opens with a {!prelude} that makes a staleness
    notification push, then fires a seeded stream of requests — valid
    layouts and lints, raising strategies, zero and near-zero deadlines,
    malformed and truncated JSON, nesting bombs, oversized payloads,
    unknown schema versions, uploads with out-of-range ids and
    non-conserving counts, plus subscribe and health probes — through
    the serve loop.  {!check} holds the daemon to its contract: it never
    crashes, answers every request with exactly one well-formed
    response, lands in the forced degradation tier where one is
    expected, and pushes well-formed notifications exactly once per
    (profile, strategy, kind, epoch).  The soak harness runs the same
    checker over its rounds. *)

val chaos_strategy : Placement.Strategy.t
(** Registry entry ["chaos-raise"]: raises from both layout hooks, for
    exercising the natural-fallback tier.  Injected via
    {!Daemon.config.extra_strategies}. *)

val default_config : unit -> Daemon.config
(** Two benchmarks, small caps and a 64 KiB request limit, with
    {!chaos_strategy} installed — every bound the campaign tests is
    actually crossable. *)

type report = {
  seed : int;
  requests : int;
  responses : int;
  notifications : int;
      (** push staleness notifications interleaved in the output *)
  ok : int;
  errors : int;
  timeouts : int;
  by_category : (string * int) list;
  statuses_by_category : (string * (int * int * int)) list;
      (** per category with a response: (ok, error, timeout) counts *)
  violations : string list;  (** contract breaches; [[]] = clean campaign *)
}

val generate :
  Workloads.Rng.t ->
  benches:string list ->
  config:Daemon.config ->
  int ->
  (string * string list) * string
(** One seeded request: ((category, expected statuses), line).  Exposed
    so the soak harness can reuse the adversarial mix. *)

val prelude :
  Daemon.t ->
  bench:string ->
  profile:string ->
  ((string * string list) * string) list
(** The requests every campaign opens with: a flow-conserving upload of
    [profile] at epoch 1, a subscribe-all client, one layout against
    the profile (caching a custom map), and a flow-conserving re-upload
    at epoch 2 that makes that map stale — so the stream pushes at least
    one staleness notification.  Same shape as {!generate}. *)

(** {1 The serve contract} *)

type checker
(** Accumulates the contract over one or more batches of one daemon. *)

val checker : unit -> checker

val check :
  checker -> (string * string list) list -> Obs.Json.t list -> unit
(** [check c cats emitted] checks the lines a daemon emitted for one
    batch of requests, whose (category, expected statuses) are [cats]
    in order.  Notifications are split out; the remaining responses pair
    with [cats] in order, and a count mismatch either way is a
    violation.  Each paired response must be well-formed (schema,
    request, status), its status within the category's set and tallied;
    ["layout-chaos-strategy"] must land in the natural-fallback tier,
    ["layout-deadline-cheap"] in cheapest-strategy, and
    ["layout-deadline-0"] must carry [retry_after_ms].  Each notification
    must carry the schema, event ["layouts-stale"], a profile, an epoch
    and a non-empty [stale] list, and no (profile, strategy, kind,
    epoch) may be pushed twice across every batch [c] has seen. *)

val finish : checker -> seed:int -> report
(** The tallies and violations so far, in order; a stream that pushed no
    notification at all is a violation too. *)

val run : ?seed:int -> ?n:int -> ?config:Daemon.config -> unit -> report
(** Run a campaign of {!prelude} followed by [n] (default 200) seeded
    requests, all in one batch, through {!check}.  Deterministic for a
    given seed and config. *)

val report_json : report -> Obs.Json.t
val summary : report -> string
