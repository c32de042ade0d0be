(** Function inline expansion (paper step 2): call sites with high dynamic
    execution count are replaced with the callee body, turning important
    inter-function control transfers into intra-function ones.

    Rounds repeat on the inlined program so that calls inside inlined
    bodies can be expanded too, but the program is profiled only once:
    every round's call-site counts are summed from the calling-context
    tree of the original program's profile ({!Vm.Profile.t.contexts}),
    since an inlined program executes exactly the original's path. *)

open Ir

type config = {
  min_call_count : int;  (** a site must execute at least this often… *)
  min_call_fraction : float;  (** …or carry this share of all calls *)
  max_callee_insns : int;  (** never inline callees larger than this *)
  max_program_growth : float;  (** cap on total static code growth *)
  rounds : int;
      (** at most this many rounds, each on the previous round's
          program, enabling nested inlining *)
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

type counts = {
  site_counts : (int * Cfg.label * int, int) Hashtbl.t;
      (** as {!Vm.Profile.t.site_counts} *)
  dyn_calls : int;  (** as {!Vm.Profile.t.dyn_calls} *)
}
(** What a round's decisions read: the dynamic call count of every call
    site of the program the round starts from, and their total. *)

val expand :
  ?config:config -> profile:Vm.Profile.t -> Prog.program -> Prog.program * report
(** Inline-repeat until a round inlines nothing or the round limit.
    [profile] must be a profile of the input program; no round runs the
    VM (every round's counts are {!derive}d from it).  Raises
    [Invalid_argument] when [profile] is of another program. *)

val derive : Vm.Profile.t -> Prog.program -> counts
(** [derive profile prog]: the counts of [prog], made from
    [profile.prog] by any number of inline rounds, summed from the
    profile's calling-context tree.  They equal the counts of profiling
    [prog] over the profile's inputs. *)

val rounds :
  ?config:config -> Prog.program -> (Prog.program -> counts) -> Prog.program * report
(** The round loop of {!expand} under any source of counts: each round
    asks [counts] for the counts of the program it starts from.
    [expand ~profile prog] is [rounds prog (derive profile)]; the test
    oracle drives it with a VM pass per round. *)
