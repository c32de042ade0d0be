(* Differential testing over randomly generated programs: every
   transformation in the stack must preserve observable behavior, and
   every placement artifact must satisfy its structural invariants, on
   arbitrary control flow — not just the hand-written fixtures. *)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify preserves behavior" ~count:120 seed_gen
    (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let s = fst (Ir.Simplify.program p) in
      Ir.Check.program s;
      Oracle.Gen.observe p = Oracle.Gen.observe s)

let prop_inline_preserves =
  QCheck.Test.make ~name:"inline expansion preserves behavior" ~count:60
    seed_gen (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let inlined, _ =
        Placement.Inline.expand ~config:Oracle.Inline_rounds.aggressive
          ~profile:(Vm.Profile.profile p [ Vm.Io.input [] ])
          p
      in
      Ir.Check.program inlined;
      Oracle.Gen.observe p = Oracle.Gen.observe inlined)

let prop_scaling_preserves =
  QCheck.Test.make ~name:"code scaling preserves behavior" ~count:60 seed_gen
    (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let scaled = Ir.Prog.scale_code 0.6 p in
      Oracle.Gen.observe p = Oracle.Gen.observe scaled)

let prop_pipeline_invariants =
  QCheck.Test.make ~name:"pipeline invariants on random programs" ~count:40
    seed_gen (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let program = pl.Placement.Pipeline.program in
      Ir.Check.program program;
      Helpers.is_disjoint pl.Placement.Pipeline.optimized
      && Placement.Global_layout.is_permutation pl.Placement.Pipeline.global
           (Array.length program.Ir.Prog.funcs)
      && Array.for_all
           (fun (sel : Placement.Trace_select.t) ->
             Array.for_all (fun id -> id >= 0) sel.Placement.Trace_select.trace_of)
           pl.Placement.Pipeline.selections
      && Array.length
           (Array.of_list
              (Array.to_list pl.Placement.Pipeline.layouts
              |> List.filteri (fun fid lay ->
                     not
                       (Placement.Func_layout.is_permutation lay
                          (Array.length program.Ir.Prog.funcs.(fid).Ir.Prog.blocks)))))
         = 0
      (* behavior preserved end to end *)
      && Oracle.Gen.observe pl.Placement.Pipeline.original
         = Oracle.Gen.observe program)

let prop_layouts_agree_on_accesses =
  (* Natural, IMPACT and P-H layouts of the same program replay the same
     number of fetches; all ratios bounded. *)
  QCheck.Test.make ~name:"layouts replay identical access counts" ~count:25
    seed_gen (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input [])
      in
      let config = Icache.Config.make ~size:512 ~block:32 () in
      let program = pl.Placement.Pipeline.program in
      let profile = pl.Placement.Pipeline.profile in
      let ph_layouts =
        Array.mapi
          (fun fid f ->
            Placement.Ph_layout.layout f
              (Placement.Weight.cfg_of_profile profile fid))
          program.Ir.Prog.funcs
      in
      let ph_map =
        Placement.Address_map.build program ~layouts:ph_layouts
          ~order:pl.Placement.Pipeline.global
      in
      let runs =
        List.map
          (fun map -> List.hd (Sim.Driver.simulate [ config ] map trace))
          [ pl.Placement.Pipeline.natural; pl.Placement.Pipeline.optimized; ph_map ]
      in
      match runs with
      | [ a; b; c ] ->
        a.Sim.Driver.accesses = b.Sim.Driver.accesses
        && b.Sim.Driver.accesses = c.Sim.Driver.accesses
        && List.for_all
             (fun (r : Sim.Driver.result) ->
               r.Sim.Driver.miss_ratio >= 0. && r.Sim.Driver.miss_ratio <= 1.)
             runs
      | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_simplify_preserves;
    QCheck_alcotest.to_alcotest prop_inline_preserves;
    QCheck_alcotest.to_alcotest prop_scaling_preserves;
    QCheck_alcotest.to_alcotest prop_pipeline_invariants;
    QCheck_alcotest.to_alcotest prop_layouts_agree_on_accesses;
  ]
