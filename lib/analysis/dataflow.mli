(** Generic forward dataflow over an explicit flow graph: chaotic
    iteration over caller-supplied lattice operations, run by a
    round-robin worklist to the fixpoint.  The cache age-vector domains
    of {!Absint} are its instances.  Values are mutated in place; [make]
    need not produce a join identity because the meet assigns its first
    contributor and joins the rest. *)

open Ir

type 'a lattice = {
  make : unit -> 'a;  (** fresh interior value *)
  assign : dst:'a -> 'a -> unit;
  join_into : dst:'a -> 'a -> unit;
  equal : 'a -> 'a -> bool;
}

type 'a value_problem = {
  v_nnodes : int;
  v_succs : int -> int list;
  v_preds : int -> int list;
  v_boundary : int list;  (** flow-graph entries *)
  v_boundary_value : 'a;  (** input value at the boundary nodes *)
  v_lattice : 'a lattice;
  v_transfer : int -> src:'a -> dst:'a -> unit;  (** [dst := f_v(src)] *)
}

type 'a value_solution = {
  v_in : 'a array;  (** value flowing into each node's transfer function *)
  v_out : 'a array;  (** value after the node's transfer function *)
  v_iterations : int;  (** worklist pops until the fixpoint *)
  v_capped : bool;
      (** true iff [?max_iters] stopped the worklist early; the solution
          is then a pre-fixpoint and MUST NOT back any soundness claim *)
  v_warnings : Diag.t list;
      (** the [Lint]-stage cap warning when [v_capped] *)
}

val solve_values : ?max_iters:int -> 'a value_problem -> 'a value_solution
(** [max_iters] caps worklist pops (a widening stand-in for graphs that
    converge slowly, e.g. irreducible CFGs); hitting it sets [v_capped]
    and logs a warning. *)

val cfg_preds : Cfg.block array -> Cfg.label list array
(** Predecessor lists derived from {!Cfg.successors}, deduplicated. *)
