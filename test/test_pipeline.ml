(* End-to-end pipeline tests on real workloads with small inputs. *)

let small_inputs = function
  | "wc" -> [ Vm.Io.input [ "lorem ipsum dolor\nsit amet\n" ] ]
  | "grep" ->
    [ Vm.Io.input [ "alpha beta\ngamma\nbeta again\n"; "beta\n" ] ]
  | "yacc" -> [ Vm.Io.input [ "1+2;3*4;(5-2)*7;" ] ]
  | "compress" -> [ Vm.Io.input [ "abababababcdcdcdcdab" ] ]
  | name -> Alcotest.failf "no small input for %s" name

let run_pipeline name =
  let b = Workloads.Registry.find name in
  Placement.Pipeline.run (Workloads.Bench.program b)
    ~inputs:(small_inputs name)

let structural_invariants () =
  List.iter
    (fun name ->
      let p = run_pipeline name in
      Ir.Check.program p.Placement.Pipeline.program;
      Alcotest.(check bool) (name ^ ": optimized map disjoint") true
        (Helpers.is_disjoint p.Placement.Pipeline.optimized);
      Alcotest.(check bool) (name ^ ": global order is a permutation") true
        (Placement.Global_layout.is_permutation p.Placement.Pipeline.global
           (Array.length p.Placement.Pipeline.program.Ir.Prog.funcs));
      Array.iteri
        (fun fid sel ->
          let f = p.Placement.Pipeline.program.Ir.Prog.funcs.(fid) in
          let n = Array.length f.Ir.Prog.blocks in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s traces partition" name f.Ir.Prog.name)
            true
            (Placement.Trace_select.is_partition sel n);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s layout permutes" name f.Ir.Prog.name)
            true
            (Placement.Func_layout.is_permutation
               p.Placement.Pipeline.layouts.(fid)
               n))
        p.Placement.Pipeline.selections)
    [ "wc"; "grep"; "yacc"; "compress" ]

let semantics_preserved () =
  List.iter
    (fun name ->
      let b = Workloads.Registry.find name in
      let original = Workloads.Bench.program b in
      let p = run_pipeline name in
      List.iter
        (fun input ->
          let before = Vm.Interp.run original input in
          let after = Vm.Interp.run p.Placement.Pipeline.program input in
          Alcotest.(check int) (name ^ ": return") before.Vm.Interp.return_value
            after.Vm.Interp.return_value;
          Alcotest.(check string) (name ^ ": output")
            (Vm.Io.output before.Vm.Interp.io 0)
            (Vm.Io.output after.Vm.Interp.io 0))
        (small_inputs name))
    [ "wc"; "grep"; "yacc"; "compress" ]

let effective_region_is_executed () =
  (* Every block executed on a profiling input must fall inside the
     effective region; equivalently, no executed block may be placed past
     effective_bytes. *)
  let p = run_pipeline "grep" in
  let map = p.Placement.Pipeline.optimized in
  let trace =
    Sim.Trace.record p.Placement.Pipeline.program
      (List.hd (small_inputs "grep"))
  in
  Sim.Trace.iter_blocks
    (fun fid label ->
      let addr = map.Placement.Address_map.block_addr.(fid).(label) in
      if addr >= map.Placement.Address_map.effective_bytes then
        Alcotest.failf "executed block %d/%d at %d beyond effective %d" fid
          label addr map.Placement.Address_map.effective_bytes)
    trace

let optimized_not_worse () =
  (* On the profiling input itself, the optimized layout should not miss
     more than the natural layout of the same program (2KB/64B direct). *)
  List.iter
    (fun name ->
      let p = run_pipeline name in
      let trace =
        Sim.Trace.record p.Placement.Pipeline.program
          (List.hd (small_inputs name))
      in
      let config = Icache.Config.make ~size:2048 ~block:64 () in
      let simulate map = List.hd (Sim.Driver.simulate [ config ] map trace) in
      let opt = simulate p.Placement.Pipeline.optimized in
      let nat = simulate p.Placement.Pipeline.natural in
      Alcotest.(check bool)
        (name ^ ": optimized misses <= natural misses") true
        (opt.Sim.Driver.misses <= nat.Sim.Driver.misses))
    [ "wc"; "grep"; "compress" ]

let ablation_no_inline () =
  let b = Workloads.Registry.find "wc" in
  let config = { Placement.Pipeline.do_inline = false } in
  let p =
    Placement.Pipeline.run ~config (Workloads.Bench.program b)
      ~inputs:(small_inputs "wc")
  in
  Alcotest.(check int) "no sites inlined" 0
    p.Placement.Pipeline.inline_report.Placement.Inline.sites_inlined;
  Alcotest.(check bool) "program unchanged" true
    (p.Placement.Pipeline.program == p.Placement.Pipeline.original)

(* No program is profiled twice: when inlining and cleanup leave the
   program unchanged, the pipeline's profile is the original one. *)
let profile_reused () =
  List.iter
    (fun name ->
      let b = Workloads.Registry.find name in
      let p =
        Placement.Pipeline.run (Workloads.Bench.program b)
          ~inputs:(Workloads.Bench.profile_inputs b)
      in
      Alcotest.(check bool) (name ^ ": original profile reused") true
        (p.Placement.Pipeline.profile == p.Placement.Pipeline.original_profile))
    [ "tee"; "cmp" ]

let prop_noinline_reuses =
  QCheck.Test.make ~name:"inlining off reuses the original profile" ~count:30
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Ir.Lower.program (Gen_prog.generate seed) in
      let config = { Placement.Pipeline.do_inline = false } in
      let pl = Placement.Pipeline.run ~config p ~inputs:[ Vm.Io.input [] ] in
      pl.Placement.Pipeline.profile == pl.Placement.Pipeline.original_profile)

(* cccp's post-inline cleanup changes the program, so its profile must
   be taken afresh — of exactly the program that ships. *)
let reprofiled_when_changed () =
  let b = Workloads.Registry.find "cccp" in
  let p =
    Placement.Pipeline.run (Workloads.Bench.program b)
      ~inputs:(Workloads.Bench.profile_inputs b)
  in
  Alcotest.(check bool) "re-profiled" true
    (p.Placement.Pipeline.profile.Vm.Profile.prog
    == p.Placement.Pipeline.program);
  Alcotest.(check int) "full validation" 0
    (List.length (Placement.Validate.pipeline ~level:Placement.Validate.Full p))

let suite =
  [
    Alcotest.test_case "structural invariants" `Quick structural_invariants;
    Alcotest.test_case "semantics preserved" `Quick semantics_preserved;
    Alcotest.test_case "effective region is executed" `Quick
      effective_region_is_executed;
    Alcotest.test_case "optimized not worse than natural" `Quick
      optimized_not_worse;
    Alcotest.test_case "ablation: inlining off" `Quick ablation_no_inline;
    Alcotest.test_case "unchanged program reuses its profile" `Quick
      profile_reused;
    QCheck_alcotest.to_alcotest prop_noinline_reuses;
    Alcotest.test_case "changed program is re-profiled" `Quick
      reprofiled_when_changed;
  ]
