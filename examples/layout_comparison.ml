(* Layout comparison: inspect what the placement pipeline actually does
   to one of the paper's benchmarks — the global function order, the
   per-function trace structure, the effective/dead split — and how the
   layouts behave across cache sizes.

     dune exec examples/layout_comparison.exe -- [benchmark]     *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "yacc" in
  let bench = Workloads.Registry.find name in
  Printf.printf "benchmark: %s (%s)\n\n" name bench.Workloads.Bench.description;
  let pl =
    Placement.Pipeline.run
      (Workloads.Bench.program bench)
      ~inputs:(Workloads.Bench.profile_inputs bench)
  in
  let program = pl.Placement.Pipeline.program in

  (* Global layout: weighted call-graph DFS order. *)
  print_endline "function placement order (effective regions first):";
  Array.iteri
    (fun rank fid ->
      let f = program.Ir.Prog.funcs.(fid) in
      let lay = pl.Placement.Pipeline.layouts.(fid) in
      let sel = pl.Placement.Pipeline.selections.(fid) in
      Printf.printf "  %2d. %-18s %4d B (%4d B effective), %2d traces\n" rank
        f.Ir.Prog.name lay.Placement.Func_layout.total_bytes
        lay.Placement.Func_layout.active_bytes
        (Array.length sel.Placement.Trace_select.traces))
    pl.Placement.Pipeline.global.Placement.Global_layout.order;

  (* Cache behavior across sizes, one column per registered layout
     strategy.  Adding a strategy to [Placement.Strategy.all] grows the
     table automatically. *)
  let trace =
    Sim.Trace.record program (Workloads.Bench.trace_input bench)
  in
  Printf.printf "\ntrace: %d dynamic instructions\n\n"
    (Sim.Trace.result trace).Vm.Interp.dyn_insns;
  let strategies = Placement.Strategy.all in
  let maps =
    List.map (fun s -> Placement.Pipeline.map_for pl s) strategies
  in
  Printf.printf "miss ratio by strategy:\n cache";
  List.iter
    (fun s -> Printf.printf "  %10s" s.Placement.Strategy.id)
    strategies;
  print_newline ();
  let sizes = [ 512; 1024; 2048; 4096; 8192 ] in
  let configs =
    List.map (fun size -> Icache.Config.make ~size ~block:64 ()) sizes
  in
  (* One trace walk per map simulates every size. *)
  let columns =
    List.map (fun map -> Sim.Driver.simulate configs map trace) maps
  in
  List.iteri
    (fun i size ->
      Printf.printf "%5dB" size;
      List.iter
        (fun column ->
          let r = List.nth column i in
          Printf.printf "  %10s" (Report.Fmtutil.pct r.Sim.Driver.miss_ratio))
        columns;
      print_newline ())
    sizes
