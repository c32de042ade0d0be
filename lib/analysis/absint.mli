(** Sound static I-cache analysis: Must (guaranteed-hit) and May
    (guaranteed-miss) age abstract interpretations plus a loop-scoped
    Persistence (first-miss) classification, run over the
    context-insensitive supergraph as {!Dataflow.solve_values}
    instances of the {!Cachedom} lattice.

    Every classification is a guarantee about real executions that
    start from an empty cache under whole-block fill; anything the
    analysis cannot promise is [Unknown], and whole configurations it
    cannot model (sectored/partial fill, prefetch, >254 ways, a capped
    solve) are gated — [gated] names the reason and every access stays
    [Unknown].  Irreducible functions degrade to [Unknown] per
    function, with a warning carrying the {!Loops} witness. *)

open Ir

type cls =
  | Hit  (** always hits (after the supergraph-entry boundary) *)
  | Miss  (** always misses *)
  | First_miss of int
      (** misses at most once per entry to [scopes.(i)] *)
  | Unknown

type scope = {
  s_fid : int;
  s_header : Cfg.label;
  s_depth : int;
  s_body : int array;
      (** first-miss members, sorted: the syntactic loop body plus every
          function whose call sites ALL lie inside the scope (their
          blocks cannot execute outside a stay in the loop) *)
  s_header_gid : int;
  s_persistent : Bytes.t;  (** per cache set: ['\001'] = scope fits *)
}

type t = {
  prog : Prog.program;
  map : Placement.Address_map.t;
  config : Icache.Config.t;
  universe : Cachedom.universe option;  (** [None] iff gated pre-solve *)
  nnodes : int;
  offsets : int array;  (** fid -> first gid *)
  node_fid : int array;
  node_label : int array;
  naccesses : int array;  (** line fetches per node, valid when gated *)
  accesses : int array array;  (** dense line ids per node *)
  cls : cls array array;
  reachable : bool array;  (** supergraph-reachable from the entry *)
  scopes : scope array;
  gated : string option;
  capped : bool;
  consistent : bool;
      (** no access was both must-hit and may-absent (domain invariant;
          a [false] here is an analysis bug, checked by QCheck) *)
  must_iterations : int;
  may_iterations : int;
  warnings : Diag.t list;
}

val gid : t -> int -> Cfg.label -> int

val analyze :
  ?max_iters:int ->
  Icache.Config.t ->
  Placement.Address_map.t ->
  Prog.program ->
  t
(** [max_iters] defaults to [1000 + 100 * nodes] of the supergraph;
    hitting the cap gates the whole result. *)

type totals = {
  t_hit : int;
  t_miss : int;
  t_first : int;
  t_unknown : int;
  t_accesses : int;
  t_blocks : int;  (** reachable blocks *)
  t_blocks_classified : int;  (** reachable blocks fully classified *)
}

val totals : t -> totals

type interval = {
  lo : int;
  hi : int;
  accesses : int;  (** weighted line fetches *)
  fetches : int;  (** weighted instruction words (miss-ratio denominator) *)
  w_hit : int;
  w_miss : int;
  w_first : int;
  w_unknown : int;
}

val interval :
  ?entries:(int -> int) -> t -> counts:(int -> Cfg.label -> int) -> interval
(** Sound miss-count interval for any execution whose per-block counts
    match [counts]: [lo] sums guaranteed misses, [hi] adds unclassified
    accesses in full and each (scope, line) first-miss group capped by
    [entries] — an upper bound on the number of stays in that scope,
    defaulting to the scope header's count (always sound, very loose
    for hot loops; {!profile_interval} and {!tracked_entries} give
    per-entry rather than per-iteration caps). *)

val profile_interval :
  t -> weights:(int -> Placement.Weight.cfg_weights) -> interval
(** The certified interval under profile weights: [counts] are the
    weights' block counts, and each scope's stay bound is its profile
    arcs into the header from outside the body, plus function
    invocations for a block-0 header.  One weight view per function is
    built inside the call. *)

(** {2 Exact stay counting over an executed block stream} *)

type tracker

val tracker : Prog.program -> tracker
(** A stay counter over the program's scopes.  Scopes depend only on
    the program (loops and call graph), and {!analyze} numbers them the
    same way, so one tracker fed one trace serves every analysis of the
    program, under any map or geometry: [tracked_entries k si] is the
    stay count of [scopes.(si)] of each such analysis.  Gated and capped
    analyses have no scopes and never ask. *)

val track : tracker -> int -> Cfg.label -> unit
(** Feed executed blocks in order; accumulates per-block counts and
    per-scope stay counts (header executed, previous block outside the
    scope's members). *)

val tracked_counts : tracker -> int -> Cfg.label -> int
val tracked_entries : tracker -> int -> int
