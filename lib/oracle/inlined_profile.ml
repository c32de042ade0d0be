(* A VM pass over the shipped inlined program, the oracle of the counts
   [Placement.Inline.derive] replays from the original run. *)

let events c =
  let acc = ref [] in
  Vm.Interp.iter_events c (fun node l k n ->
      acc := (node.Vm.Interp.id, l, k, n) :: !acc);
  List.rev !acc

let same_counts ~got ~want =
  let got_p = Vm.Profile.of_counts got and want_p = Vm.Profile.of_counts want in
  if got_p.prog != want_p.prog then Error "program"
  else
    match Transfer_profile.same_tables ~got:got_p ~want:want_p with
    | Error _ as e -> e
    | Ok () ->
      if got_p.contexts <> want_p.contexts then Error "calling-context tree"
      else if events got <> events want then
        Error "per-context counts or first-taken event log"
      else Ok ()

let same_as_oracle ?config prog inputs =
  let original = fst (Ir.Simplify.program prog) in
  let profile, counts = Vm.Profile.run original inputs in
  let inlined, _ = Placement.Inline.expand ?config ~profile original in
  let ((shipped, _) as simplified) = Ir.Simplify.program inlined in
  same_counts
    ~got:(Placement.Inline.derive counts inlined ~simplified)
    ~want:(snd (Vm.Profile.run shipped inputs))
