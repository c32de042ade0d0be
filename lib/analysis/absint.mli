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
    [Unknown].  Irreducible functions ({!Loops.t.reducible} false)
    degrade to [Unknown] per function, with a warning that names the
    function.

    What depends only on the program (supergraph, reachability, loop
    forests, scopes) is built once by {!prepare}; each {!analyze} of a
    map and geometry reads it. *)

open Ir

type cls =
  | Hit  (** always hits (after the supergraph-entry boundary) *)
  | Miss  (** always misses *)
  | First_miss of int
      (** misses at most once per entry to [program.scopes.(i)] *)
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
}
(** A natural-loop scope.  Scopes depend only on the program (loops and
    call graph), never on the map or the cache geometry. *)

type program = private {
  prog : Prog.program;
  nnodes : int;  (** supergraph nodes, one per (function, block) *)
  offsets : int array;  (** fid -> first gid *)
  node_fid : int array;
  node_label : int array;
  succs : int list array;
      (** intra-function edges, call edges to the callee's entry and
          return edges from its [Ret] blocks to the return label *)
  preds : int list array;
  reachable : bool array;  (** supergraph-reachable from the entry *)
  loops : Loops.t array;  (** per function, with its dominator tree *)
  scope_warnings : Diag.t list;
      (** one per irreducible function, in function order; those
          functions have no scopes and degrade to [Unknown] *)
  scopes : scope array;  (** a function's outer loops first *)
  closures : int array array;
      (** per scope, the gids one stay can execute: its body plus every
          function transitively callable from it *)
  candidates : int array array;
      (** per gid, the scopes it is a member of, preferred first:
          other functions' scopes (the enclosing caller loops) before
          its own, then by depth *)
}
(** The parts of the analysis that depend only on the program, built
    once by {!prepare} and shared by every {!analyze} and {!tracker} of
    it.  [Experiments.Context] holds one per benchmark entry. *)

val prepare : Prog.program -> program

type t = {
  program : program;
  map : Placement.Address_map.t;
  universe : Cachedom.universe option;  (** [None] iff gated pre-solve *)
  naccesses : int array;  (** line fetches per node, valid when gated *)
  accesses : int array array;  (** dense line ids per node *)
  cls : cls array array;
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

val analyze : Icache.Config.t -> Placement.Address_map.t -> program -> t
(** Must and May solves over the prepared supergraph, then the
    classification.  An access that is neither a guaranteed hit nor a
    guaranteed miss is [First_miss si] for the first candidate scope
    [si] of its node in which its line is persistent: the distinct lines
    of the scope's closure in that line's cache set fit in the ways.
    Persistence is kept per dense line id, so nothing here is sized by
    the cache's set count.  [First_miss] indexes [program.scopes].

    Each solve is capped at [1000 + 100 * nodes] worklist pops of the
    supergraph, a safety bound; hitting it gates the whole result. *)

val analyze_with :
  solve:
    (max_iters:int ->
    Cachedom.state Dataflow.value_problem ->
    Cachedom.state Dataflow.value_solution) ->
  Icache.Config.t ->
  Placement.Address_map.t ->
  program ->
  t
(** {!analyze} with the Must and then the May problem handed to [solve]
    instead of {!Dataflow.solve_values}, with the size-derived cap as
    [max_iters]: how a reference solver is compared with the product
    one, and how a test reaches the capped path. *)

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

val tracker : program -> tracker
(** A stay counter over the prepared program's scopes, so one tracker
    fed one trace serves every analysis of the program, under any map or
    geometry: [tracked_entries k si] is the stay count of
    [program.scopes.(si)].  Gated and capped analyses classify nothing
    [First_miss] and never ask. *)

val track : tracker -> int -> Cfg.label -> unit
(** Feed executed blocks in order; accumulates per-block counts and
    per-scope stay counts (header executed, previous block outside the
    scope's members). *)

val tracked_counts : tracker -> int -> Cfg.label -> int
val tracked_entries : tracker -> int -> int
