(* Cache explorer: sweep the cache design space for one benchmark under
   the optimized placement — associativity (the paper's claim: a
   direct-mapped cache with placement rivals a fully associative one),
   block size, and fill policy (whole / sectored / partial).

     dune exec examples/cache_explorer.exe -- [benchmark]     *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "cccp" in
  let bench = Workloads.Registry.find name in
  let pl =
    Placement.Pipeline.run
      (Workloads.Bench.program bench)
      ~inputs:(Workloads.Bench.profile_inputs bench)
  in
  let trace =
    Sim.Trace.record pl.Placement.Pipeline.program
      (Workloads.Bench.trace_input bench)
  in
  let simulate config map =
    List.hd (Sim.Driver.simulate [ config ] map trace)
  in
  let pct = Report.Fmtutil.pct in

  Printf.printf "benchmark %s: %d dynamic instructions, %d code bytes\n\n"
    name (Sim.Trace.result trace).Vm.Interp.dyn_insns
    pl.Placement.Pipeline.optimized.Placement.Address_map.total_bytes;

  (* Associativity at 2KB/64B: does placement substitute for ways? *)
  print_endline "associativity (2KB, 64B blocks):";
  List.iter
    (fun (label, assoc, map) ->
      let r = simulate (Icache.Config.make ~assoc ~size:2048 ~block:64 ()) map in
      Printf.printf "  %-28s miss %-8s traffic %s\n" label
        (pct r.Sim.Driver.miss_ratio)
        (pct r.Sim.Driver.traffic_ratio))
    [
      ("direct, natural layout", Icache.Config.Direct, pl.Placement.Pipeline.natural);
      ("direct, optimized layout", Icache.Config.Direct, pl.Placement.Pipeline.optimized);
      ("2-way, optimized layout", Icache.Config.Ways 2, pl.Placement.Pipeline.optimized);
      ("fully assoc, natural layout", Icache.Config.Full, pl.Placement.Pipeline.natural);
      ("fully assoc, optimized", Icache.Config.Full, pl.Placement.Pipeline.optimized);
    ];

  (* Block size under the optimized layout. *)
  print_endline "\nblock size (2KB direct-mapped):";
  List.iter
    (fun block ->
      let r =
        simulate
          (Icache.Config.make ~size:2048 ~block ())
          pl.Placement.Pipeline.optimized
      in
      Printf.printf "  %3dB blocks: miss %-8s traffic %-8s avg.exec %.1f\n"
        block
        (pct r.Sim.Driver.miss_ratio)
        (pct r.Sim.Driver.traffic_ratio)
        r.Sim.Driver.avg_exec_insns)
    [ 16; 32; 64; 128 ];

  (* Fill policies at 2KB/64B. *)
  print_endline "\nfill policy (2KB direct-mapped, 64B blocks):";
  List.iter
    (fun (label, fill) ->
      let r =
        simulate
          (Icache.Config.make ~fill ~size:2048 ~block:64 ())
          pl.Placement.Pipeline.optimized
      in
      Printf.printf
        "  %-16s miss %-8s traffic %-8s avg.fetch %-5.1f eat %.3f cyc\n"
        label
        (pct r.Sim.Driver.miss_ratio)
        (pct r.Sim.Driver.traffic_ratio)
        r.Sim.Driver.avg_fetch_words
        (match fill with
        | Icache.Config.Partial -> r.Sim.Driver.eat_streaming_partial
        | Icache.Config.Whole | Icache.Config.Sectored _ ->
          r.Sim.Driver.eat_streaming))
    [
      ("whole block", Icache.Config.Whole);
      ("sectored (8B)", Icache.Config.Sectored 8);
      ("partial load", Icache.Config.Partial);
    ]
