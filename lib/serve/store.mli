(** Named profile store of the layout service.

    Uploads merge weighted block/arc/entry/call counts into float
    accumulators bucketed by epoch; a staleness window expires old
    epochs as the current one advances, and uploads tagged with an
    expired epoch are answered [accepted = false] (["stale-epoch"])
    rather than erroring.  After every accepted upload the retained
    epochs are summed, rounded once into a {!Vm.Profile.t} over the
    bench's inlined program, and checked with
    {!Placement.Validate.flow}: a violation marks the profile
    {e poisoned} and pins readers to the last flow-conserving snapshot
    (the "last-good epoch" degradation tier).  The store is bounded:
    creating one profile past its cap evicts the least-recently-used
    one (a {!Placement.Bounded} map, counted in the
    [serve.profile_evictions] metric). *)

type t

val create : cap:int -> ?window:int -> unit -> t
(** [cap] bounds the number of named profiles; [window] is the number
    of live epochs (default 4).  Both must be [>= 1]
    ([Invalid_argument] otherwise).

    A profile counts as used when {!view} reads it, and when an upload
    names it with the matching bench — even if that upload is then
    rejected.  {!bench_of}, {!poisoned_count} and {!stats_json} leave
    recency alone. *)

type outcome = {
  accepted : bool;
  reason : string option;  (** ["stale-epoch"] when [accepted] is false *)
  epoch : int;  (** the epoch the upload targeted *)
  min_live : int;  (** oldest epoch still inside the window *)
  epochs_live : int;
  poisoned : bool;
  flow_violations : int;
  revision : int;  (** profile revision after the upload *)
}

val upload :
  t ->
  prog:Ir.Prog.program ->
  Protocol.upload ->
  (outcome, Protocol.error_info) result
(** Validate structurally against [prog] (ids in range, counts finite
    and non-negative, arcs along real control-flow edges, call rows at
    real call sites), then merge.  [Error] carries a usage-stage
    {!Protocol.error_info} and leaves the store unchanged. *)

type view =
  | Fresh of { profile : Vm.Profile.t; revision : int; epoch : int }
  | Last_good of { profile : Vm.Profile.t; revision : int; epoch : int }
  | Empty  (** exists, but no flow-conserving snapshot was ever built *)
  | Unknown

val view : t -> string -> view
(** Read the usable snapshot of a named profile.  The returned
    {!Vm.Profile.t} is physically stable until the next accepted upload,
    so address maps keyed on it stay memo-hot. *)

val bench_of : t -> string -> string option
val size : t -> int

val evictions_total : t -> int
(** Profiles this store evicted via its LRU cap — a store-local count
    ({!Placement.Bounded.evictions}), deterministic even when the
    metrics registry is disabled. *)

val poisoned_count : t -> int
(** Profiles currently poisoned (readers pinned to last-good). *)

val stats_json : t -> Obs.Json.t
(** Per-profile summary rows, sorted by name. *)
