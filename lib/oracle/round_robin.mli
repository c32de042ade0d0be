(** Reference solver for {!Analysis.Dataflow}: the same problem, solved
    by a FIFO worklist seeded with the boundary and then every node in
    index order.  The product solver visits nodes in reverse postorder;
    both must reach the same [v_in] and [v_out] on every monotone
    problem that starts at top, with only the pop count differing. *)

val solve_values :
  ?max_iters:int ->
  'a Analysis.Dataflow.value_problem ->
  'a Analysis.Dataflow.value_solution
(** [max_iters] caps worklist pops like the product solver's; a capped
    solve sets [v_capped] and carries no warning. *)
