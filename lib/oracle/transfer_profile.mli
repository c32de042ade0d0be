(** Per-transfer profiler: every executed block, arc and call bumps its
    hash-table key as it happens, so key insertion order is first-taken
    order by construction.  {!same_as_oracle} checks {!Vm.Profile},
    whose dense counters must produce the same tables in the same
    order: every count, and every hash table read in its
    [Hashtbl.fold] order. *)

val same_as_oracle :
  Ir.Prog.program -> Vm.Io.input list -> (unit, string) result
(** [Ok ()] when {!Vm.Profile.profile} equals the per-transfer profile
    of the inputs in every count and every table's fold order;
    otherwise [Error what], naming the first table that differs, e.g.
    ["out_arcs"]. *)

val same_tables :
  got:Vm.Profile.t -> want:Vm.Profile.t -> (unit, string) result
(** The comparison {!same_as_oracle} makes: block and entry counts, runs
    and [dyn_*] totals, every block's [out_arcs] and [in_arcs], and
    [site_counts], each hash table read in its [Hashtbl.fold] order. *)
