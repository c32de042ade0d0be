(** Function inline expansion (paper step 2): call sites with high dynamic
    execution count are replaced with the callee body, turning important
    inter-function control transfers into intra-function ones. *)

open Ir

type config = {
  min_call_count : int;  (** a site must execute at least this often… *)
  min_call_fraction : float;  (** …or carry this share of all calls *)
  max_callee_insns : int;  (** never inline callees larger than this *)
  max_program_growth : float;  (** cap on total static code growth *)
  rounds : int;  (** re-profile and repeat, enabling nested inlining *)
}

val default_config : config

type report = {
  sites_inlined : int;
  insns_before : int;
  insns_after : int;
  rounds_used : int;
}

val code_increase : report -> float
(** Fractional static code-size increase — the Table 3 [code inc] column. *)

val splice : Prog.func -> Cfg.label -> Prog.func -> Prog.func
(** [splice caller site callee] inlines one call site.  Raises
    [Invalid_argument] if the block does not end in a call to [callee]. *)

val expand_once :
  config -> budget:int -> Prog.program -> Vm.Profile.t -> Prog.program * int
(** One pass in decreasing dynamic-count order; returns the number of
    sites inlined.  [budget] bounds total program instructions. *)

val expand :
  ?config:config ->
  ?profile:Vm.Profile.t ->
  Prog.program ->
  inputs:Vm.Io.input list ->
  Prog.program * report * Vm.Profile.t option
(** Profile-inline-repeat until quiescence or the round limit.
    [profile], when given, must be the profile of the input program over
    [inputs]; round 0 uses it instead of profiling again.  The returned
    profile is that of the returned program over [inputs], present when
    the last round inlined nothing (the program is then the one that
    round profiled). *)
