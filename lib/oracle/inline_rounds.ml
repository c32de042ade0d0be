(* Inline rounds with a VM pass per round, the oracle of the counts
   [Placement.Inline.derive] sums from one calling-context tree. *)

let aggressive =
  {
    Placement.Inline.default_config with
    min_call_count = 1;
    min_call_fraction = 0.;
    max_program_growth = 5.;
  }

let vm_counts inputs prog =
  let p = Vm.Profile.profile prog inputs in
  { Placement.Inline.site_counts = p.site_counts; dyn_calls = p.dyn_calls }

let expand ?config prog ~inputs =
  Placement.Inline.rounds ?config prog (vm_counts inputs)

let sorted (c : Placement.Inline.counts) =
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) c.site_counts [])

let same_as_oracle ?config prog inputs =
  let profile = Vm.Profile.profile prog inputs in
  let round = ref 0 and first = ref None in
  let counts p =
    let want = vm_counts inputs p in
    let got = Placement.Inline.derive profile p in
    (if !first = None then
       if sorted got <> sorted want then
         first := Some (Fmt.str "round %d: site_counts" !round)
       else if got.dyn_calls <> want.dyn_calls then
         first :=
           Some
             (Fmt.str "round %d: dyn_calls %d, the VM's %d" !round
                got.dyn_calls want.dyn_calls));
    incr round;
    want
  in
  let want = Placement.Inline.rounds ?config prog counts in
  match !first with
  | Some what -> Error what
  | None ->
    if Placement.Inline.expand ?config ~profile prog <> want then
      Error "expanded program or report"
    else Ok ()
