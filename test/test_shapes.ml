(* Scientific regression tests: the paper's qualitative results must hold
   on our substrate.  These run the real pipeline on the benchmark with
   the most cache pressure (cccp) against its real inputs, so they are registered as slow cases. *)

let ctx = lazy (Experiments.Context.create ~names:[ "cccp" ] ())

let entry name = Experiments.Context.find (Lazy.force ctx) name

let result config map trace = List.hd (Sim.Driver.simulate [ config ] map trace)
let miss config map trace = (result config map trace).Sim.Driver.miss_ratio

let direct ?fill size = Icache.Config.make ?fill ~size ~block:64 ()

(* Placement never hurts: optimized <= natural at every size (paper
   Tables 6/7 premise; section 2.2 design target). *)
let placement_helps () =
  List.iter
    (fun name ->
      let e = entry name in
      let trace = Experiments.Context.trace e in
      List.iter
        (fun size ->
          let opt = miss (direct size) (Experiments.Context.optimized_map e) trace in
          let nat = miss (direct size) (Experiments.Context.natural_map e) trace in
          if opt > nat +. 1e-9 then
            Alcotest.failf "%s at %dB: optimized %.4f%% > natural %.4f%%"
              name size (100. *. opt) (100. *. nat))
        [ 512; 1024; 2048; 4096; 8192 ])
    [ "cccp" ]

(* Miss ratio degrades monotonically (within tolerance) as the cache
   shrinks — Table 6's shape. *)
let smaller_cache_worse () =
  List.iter
    (fun name ->
      let e = entry name in
      let trace = Experiments.Context.trace e in
      let misses =
        List.map
          (fun size ->
            miss (direct size) (Experiments.Context.optimized_map e) trace)
          [ 8192; 4096; 2048; 1024; 512 ]
      in
      let rec check = function
        | a :: (b :: _ as rest) ->
          if b < a -. 1e-9 then
            Alcotest.failf "%s: smaller cache misses less (%.4f%% -> %.4f%%)"
              name (100. *. a) (100. *. b);
          check rest
        | [ _ ] | [] -> ()
      in
      check misses)
    [ "cccp" ]

(* Table 7's shape: with a fixed 2KB cache, larger blocks lower the miss
   ratio and raise the traffic ratio for the pressure benchmarks. *)
let block_size_tradeoff () =
  let e = entry "cccp" in
  let trace = Experiments.Context.trace e in
  let map = Experiments.Context.optimized_map e in
  let at block =
    result (Icache.Config.make ~size:2048 ~block ()) map trace
  in
  let r16 = at 16 and r128 = at 128 in
  Alcotest.(check bool) "bigger blocks, fewer misses" true
    (r128.Sim.Driver.miss_ratio < r16.Sim.Driver.miss_ratio);
  Alcotest.(check bool) "bigger blocks, more traffic" true
    (r128.Sim.Driver.traffic_ratio > r16.Sim.Driver.traffic_ratio)

(* Table 8's shape: sectoring reduces traffic at a large miss cost;
   partial loading reduces traffic at a small miss cost. *)
let traffic_reduction_schemes () =
  let e = entry "cccp" in
  let trace = Experiments.Context.trace e in
  let map = Experiments.Context.optimized_map e in
  let whole = result (direct 2048) map trace in
  let sector =
    result (direct ~fill:(Icache.Config.Sectored 8) 2048) map trace
  in
  let partial = result (direct ~fill:Icache.Config.Partial 2048) map trace in
  Alcotest.(check bool) "sectoring cuts traffic" true
    (sector.Sim.Driver.traffic_ratio < whole.Sim.Driver.traffic_ratio);
  Alcotest.(check bool) "sectoring multiplies misses" true
    (sector.Sim.Driver.miss_ratio > 2. *. whole.Sim.Driver.miss_ratio);
  Alcotest.(check bool) "partial cuts traffic" true
    (partial.Sim.Driver.traffic_ratio < whole.Sim.Driver.traffic_ratio);
  Alcotest.(check bool) "partial misses stay close" true
    (partial.Sim.Driver.miss_ratio < 2. *. whole.Sim.Driver.miss_ratio);
  (* paper: avg.fetch well below the 16-word block, avg.exec in the
     high single digits to low teens *)
  Alcotest.(check bool) "avg.fetch below block size" true
    (partial.Sim.Driver.avg_fetch_words < 16.);
  Alcotest.(check bool) "avg.exec plausible" true
    (partial.Sim.Driver.avg_exec_insns > 4.
    && partial.Sim.Driver.avg_exec_insns < 20.)

(* Section 4.2.4: direct-mapped with placement beats the measured
   fully-associative LRU cache without placement, and sits far below
   Smith's design target. *)
let beats_full_associativity () =
  List.iter
    (fun name ->
      let e = entry name in
      let opt =
        miss (direct 2048)
          (Experiments.Context.optimized_map e)
          (Experiments.Context.trace e)
      in
      let full_unopt =
        miss
          (Icache.Config.make ~assoc:Icache.Config.Full ~size:2048 ~block:64 ())
          (Experiments.Context.original_map e)
          (Experiments.Context.original_trace e)
      in
      Alcotest.(check bool)
        (name ^ ": direct+placement <= full-LRU unoptimized")
        true
        (opt <= full_unopt +. 1e-9);
      match Experiments.Paper.smith_miss_ratio ~cache_size:2048 ~block_size:64 with
      | Some target ->
        Alcotest.(check bool) (name ^ ": far below Smith target") true
          (opt < target /. 2.)
      | None -> Alcotest.fail "missing Smith target")
    [ "cccp" ]

(* Table 9's shape: cache performance is stable under code scaling. *)
let code_scaling_stable () =
  let e = entry "cccp" in
  let trace = Experiments.Context.trace e in
  let config = direct ~fill:Icache.Config.Partial 2048 in
  let at factor = miss config (Experiments.Context.scaled_map e factor) trace in
  let base = at 1.0 in
  List.iter
    (fun factor ->
      let m = at factor in
      (* within a factor of ~3 of the unscaled ratio, as in the paper *)
      if m > (3. *. base) +. 0.01 || ((m *. 3.) +. 0.01 < base && base > 0.001)
      then
        Alcotest.failf "scaling %.1f unstable: %.4f%% vs base %.4f%%" factor
          (100. *. m) (100. *. base))
    [ 0.5; 0.7; 1.1 ]

(* Timing model ordering: blocking >= streaming >= 1 cycle; partial
   loading's effective access time does not exceed blocking whole-block
   refill. *)
let timing_ordering () =
  let e = entry "cccp" in
  let trace = Experiments.Context.trace e in
  let map = Experiments.Context.optimized_map e in
  let whole = result (direct 2048) map trace in
  let partial = result (direct ~fill:Icache.Config.Partial 2048) map trace in
  Alcotest.(check bool) "blocking slowest" true
    (whole.Sim.Driver.eat_blocking >= whole.Sim.Driver.eat_streaming);
  Alcotest.(check bool) "streaming above hit time" true
    (whole.Sim.Driver.eat_streaming >= 1.);
  Alcotest.(check bool) "partial+streaming <= whole+blocking" true
    (partial.Sim.Driver.eat_streaming_partial <= whole.Sim.Driver.eat_blocking)

let suite =
  [
    Alcotest.test_case "placement helps at every size" `Slow placement_helps;
    Alcotest.test_case "smaller caches miss more" `Slow smaller_cache_worse;
    Alcotest.test_case "block size tradeoff" `Slow block_size_tradeoff;
    Alcotest.test_case "sectoring vs partial loading" `Slow
      traffic_reduction_schemes;
    Alcotest.test_case "beats full associativity" `Slow
      beats_full_associativity;
    Alcotest.test_case "stable under code scaling" `Slow code_scaling_stable;
    Alcotest.test_case "timing model ordering" `Slow timing_ordering;
  ]
