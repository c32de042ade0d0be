(* The compressed trace store:

   - Ctrace round-trip: the run-length/delta coder reproduces the exact
     pushed code sequence (QCheck over adversarial run shapes).
   - Every benchmark: the stored trace replays exactly the block
     sequence the VM streams, and the block-granular sweep over it
     matches the word-granular reference.
   - Scaled workloads keep the original semantics (same return value and
     output, strictly more fetches and functions).
   - The trace.* gauges and stats account raw vs stored bytes. *)

let results_equal (a : Sim.Driver.result) (b : Sim.Driver.result) =
  a.Sim.Driver.accesses = b.Sim.Driver.accesses
  && a.Sim.Driver.misses = b.Sim.Driver.misses
  && a.Sim.Driver.words_fetched = b.Sim.Driver.words_fetched
  && a.Sim.Driver.miss_ratio = b.Sim.Driver.miss_ratio
  && a.Sim.Driver.traffic_ratio = b.Sim.Driver.traffic_ratio
  && a.Sim.Driver.avg_fetch_words = b.Sim.Driver.avg_fetch_words
  && a.Sim.Driver.avg_exec_insns = b.Sim.Driver.avg_exec_insns
  && a.Sim.Driver.eat_blocking = b.Sim.Driver.eat_blocking
  && a.Sim.Driver.eat_streaming = b.Sim.Driver.eat_streaming
  && a.Sim.Driver.eat_streaming_partial = b.Sim.Driver.eat_streaming_partial

(* Interpreter results are compared field-wise: [io] holds Buffers whose
   unwritten slack bytes make polymorphic equality unreliable. *)
let interp_results_equal (a : Vm.Interp.result) (b : Vm.Interp.result) =
  a.Vm.Interp.return_value = b.Vm.Interp.return_value
  && a.Vm.Interp.dyn_insns = b.Vm.Interp.dyn_insns
  && a.Vm.Interp.dyn_blocks = b.Vm.Interp.dyn_blocks
  && a.Vm.Interp.dyn_calls = b.Vm.Interp.dyn_calls
  && a.Vm.Interp.dyn_branches = b.Vm.Interp.dyn_branches
  && Vm.Io.output a.Vm.Interp.io 0 = Vm.Io.output b.Vm.Interp.io 0
  && Vm.Io.output a.Vm.Interp.io 1 = Vm.Io.output b.Vm.Interp.io 1

(* A real interpreter result for Ctrace.finish in the synthetic
   round-trip tests (its content is irrelevant there). *)
let dummy_result =
  lazy
    (let b = Workloads.Registry.find "cmp" in
     Vm.Interp.run (Workloads.Bench.program b) (Workloads.Bench.trace_input b))

(* --- Ctrace round-trip on synthetic code sequences --- *)

(* Expand a run spec into the explicit packed-code list: [(base, len)]
   means codes base, base+1, ..., base+len-1.  Bases are arbitrary (runs
   can restart backwards, repeat, or jump far ahead), which exercises
   every sign and width of the zigzag delta. *)
let expand_runs spec =
  List.concat_map (fun (base, len) -> List.init len (fun k -> base + k)) spec

let codes_of_ctrace ct =
  let out = ref [] in
  Sim.Ctrace.iter_runs (fun ~code ~len ->
      for k = 0 to len - 1 do
        out := (code + k) :: !out
      done)
    ct;
  List.rev !out

let runs_gen =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (b, n) -> Printf.sprintf "(%d,%d)" b n) l))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (pair
           (* Packed codes are (fid << 20) | label: cover small labels,
              label boundaries and large fids. *)
           (oneof
              [
                int_bound 40;
                map (fun l -> (1 lsl 20) - 1 - l) (int_bound 3);
                map2
                  (fun fid l -> (fid lsl 20) lor l)
                  (int_bound 4000) (int_bound 100);
              ])
           (int_range 1 30)))

let prop_ctrace_roundtrip =
  QCheck.Test.make ~name:"Ctrace push/replay identity (arbitrary runs)"
    ~count:200 runs_gen (fun spec ->
      let codes = expand_runs spec in
      let b = Sim.Ctrace.builder () in
      List.iter (Sim.Ctrace.push b) codes;
      let ct = Sim.Ctrace.finish b (Lazy.force dummy_result) in
      codes_of_ctrace ct = codes
      && Sim.Ctrace.dyn_blocks ct = List.length codes
      && Sim.Ctrace.raw_bytes ct = 8 * List.length codes)

(* Run coalescing: consecutive codes must land in one run, so the run
   count equals the number of breaks in the sequence. *)
let ctrace_coalesces () =
  let b = Sim.Ctrace.builder () in
  List.iter (Sim.Ctrace.push b) [ 5; 6; 7; 42; 43; 9; 5; 6 ];
  let ct = Sim.Ctrace.finish b (Lazy.force dummy_result) in
  Alcotest.(check int) "4 runs" 4 (Sim.Ctrace.runs ct);
  Alcotest.(check int) "8 blocks" 8 (Sim.Ctrace.dyn_blocks ct);
  Alcotest.(check bool)
    "compressed below raw" true
    (Sim.Ctrace.compressed_bytes ct < Sim.Ctrace.raw_bytes ct)

(* --- simulate vs reference on every benchmark --- *)

(* Two configurations exercising the engine's hairiest paths (sector
   fills within set-associative lookup; partial fills); the cheap shapes
   are already covered by the fast_sim/differential suites. *)
let diff_configs =
  [
    Icache.Config.make ~size:512 ~block:64 ~fill:(Icache.Config.Sectored 8)
      ~assoc:(Icache.Config.Ways 2) ();
    Icache.Config.make ~size:256 ~block:64 ~fill:Icache.Config.Partial ();
  ]

(* For one benchmark (natural layout, no pipeline: this pins the trace
   store, not the placement): the stored trace replays the VM's block
   stream exactly, and simulating it agrees with the word-granular
   reference. *)
let check_benchmark name =
  let b = Workloads.Registry.find name in
  let program = Workloads.Bench.program b in
  let input = Workloads.Bench.trace_input b in
  let map = Placement.Address_map.natural program in
  let trace = Sim.Trace.record program input in
  (* Round trip: decode the store into a plain code array, then
     re-execute and compare it block by block with the VM's stream. *)
  let codes = Array.make (Sim.Trace.dyn_blocks trace) 0 in
  let n = ref 0 in
  Sim.Trace.iter_blocks
    (fun fid label ->
      codes.(!n) <- Sim.Trace_gen.pack fid label;
      incr n)
    trace;
  let streamed = ref 0 and mismatches = ref 0 in
  let vm_result =
    Sim.Trace_gen.stream program input ~sink:(fun fid label ->
        let i = !streamed in
        if i >= Array.length codes || codes.(i) <> Sim.Trace_gen.pack fid label
        then incr mismatches;
        incr streamed)
  in
  Alcotest.(check int)
    (name ^ ": streamed blocks") !streamed (Sim.Trace.dyn_blocks trace);
  Alcotest.(check int) (name ^ ": replay = stream") 0 !mismatches;
  Alcotest.(check bool)
    (name ^ ": results agree") true
    (interp_results_equal vm_result (Sim.Trace.result trace));
  Alcotest.(check int)
    (name ^ ": dyn_insns") vm_result.Vm.Interp.dyn_insns
    (Sim.Trace.dyn_insns map trace);
  let fast = Sim.Driver.simulate diff_configs map trace in
  List.iter
    (fun (r : Sim.Driver.result) ->
      Alcotest.(check int)
        (name ^ ": accesses") vm_result.Vm.Interp.dyn_insns
        r.Sim.Driver.accesses)
    fast;
  (* The word-granular reference per benchmark whose trace keeps the
     word-by-word walk viable (the equivalence itself is
     config-independent and covered on random programs by the
     differential suites). *)
  if Sim.Trace.dyn_blocks trace < 500_000 then
    Alcotest.(check bool)
      (name ^ ": word-granular reference") true
      (List.for_all2 results_equal fast
         (List.map (fun c -> Sim.Driver.reference c map trace) diff_configs));
  (* The compressed representation really is smaller. *)
  let s = Sim.Trace.stats trace in
  Alcotest.(check bool)
    (name ^ ": compression wins") true
    (s.Sim.Trace.st_stored_bytes < s.Sim.Trace.st_raw_bytes)

let engines_agree_all_benchmarks () =
  List.iter check_benchmark Workloads.Registry.names

(* --- scaled workloads preserve semantics --- *)

let scale_preserves_semantics () =
  let base = Workloads.Registry.find "cmp" in
  let scaled = Workloads.Registry.find ~scale:2 "cmp" in
  let input = Workloads.Bench.trace_input base in
  let r0 = Vm.Interp.run (Workloads.Bench.program base) input in
  let r2 =
    Vm.Interp.run (Workloads.Bench.program scaled)
      (Workloads.Bench.trace_input scaled)
  in
  Alcotest.(check int)
    "same return value" r0.Vm.Interp.return_value r2.Vm.Interp.return_value;
  Alcotest.(check string)
    "same output" (Vm.Io.output r0.Vm.Interp.io 1)
    (Vm.Io.output r2.Vm.Interp.io 1);
  Alcotest.(check bool) "strictly more fetches" true
    (r2.Vm.Interp.dyn_insns > r0.Vm.Interp.dyn_insns);
  let nfuncs b =
    Array.length (Workloads.Bench.program b).Ir.Prog.funcs
  in
  Alcotest.(check bool) "strictly more functions" true
    (nfuncs scaled > nfuncs base)

let scale_monotone () =
  (* More scale, more code and more trace. *)
  let insns scale =
    let b = Workloads.Registry.find ~scale "tee" in
    (Vm.Interp.run (Workloads.Bench.program b) (Workloads.Bench.trace_input b))
      .Vm.Interp.dyn_insns
  in
  let i1 = insns 1 and i2 = insns 2 and i4 = insns 4 in
  Alcotest.(check bool) "x2 > x1" true (i2 > i1);
  Alcotest.(check bool) "x4 > x2" true (i4 > i2)

(* --- trace.* gauges --- *)

let gauges_account_recordings () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let g n = Obs.Metrics.gauge_value (Obs.Metrics.gauge n) in
  let raw0 = g "trace.raw_bytes"
  and stored0 = g "trace.compressed_bytes"
  and peak0 = g "trace.peak_resident_bytes"
  and runs0 = g "trace.runs" in
  let b = Workloads.Registry.find "cmp" in
  let t =
    Sim.Trace.record (Workloads.Bench.program b) (Workloads.Bench.trace_input b)
  in
  Obs.Metrics.set_enabled was;
  let s = Sim.Trace.stats t in
  let df g0 g1 = int_of_float (g1 -. g0) in
  Alcotest.(check int) "raw_bytes bump" s.Sim.Trace.st_raw_bytes
    (df raw0 (g "trace.raw_bytes"));
  Alcotest.(check int) "stored bump" s.Sim.Trace.st_stored_bytes
    (df stored0 (g "trace.compressed_bytes"));
  Alcotest.(check int) "peak bump" s.Sim.Trace.st_stored_bytes
    (df peak0 (g "trace.peak_resident_bytes"));
  Alcotest.(check int) "runs bump" s.Sim.Trace.st_runs
    (df runs0 (g "trace.runs"));
  Alcotest.(check bool) "stored < raw" true
    (s.Sim.Trace.st_stored_bytes < s.Sim.Trace.st_raw_bytes)

(* Stats describe the trace exactly as the VM streamed it: the block
   count, the maximal runs of consecutive codes and the 8-byte-per-block
   plain footprint, of which the compressed store holds less. *)
let stats_consistent () =
  let b = Workloads.Registry.find "wc" in
  let program = Workloads.Bench.program b in
  let input = Workloads.Bench.trace_input b in
  let blocks = ref 0 and runs = ref 0 and next = ref min_int in
  ignore
    (Sim.Trace_gen.stream program input ~sink:(fun fid label ->
         let code = Sim.Trace_gen.pack fid label in
         if code <> !next then incr runs;
         next := code + 1;
         incr blocks));
  let s = Sim.Trace.stats (Sim.Trace.record program input) in
  Alcotest.(check int) "same runs" !runs s.Sim.Trace.st_runs;
  Alcotest.(check int) "same blocks" !blocks s.Sim.Trace.st_blocks;
  Alcotest.(check int) "raw bytes" (8 * !blocks) s.Sim.Trace.st_raw_bytes;
  Alcotest.(check bool) "packed stores less" true
    (s.Sim.Trace.st_stored_bytes < s.Sim.Trace.st_raw_bytes)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ctrace_roundtrip;
    Alcotest.test_case "Ctrace coalesces consecutive codes" `Quick
      ctrace_coalesces;
    Alcotest.test_case "engines agree on every benchmark" `Slow
      engines_agree_all_benchmarks;
    Alcotest.test_case "scale preserves semantics" `Quick
      scale_preserves_semantics;
    Alcotest.test_case "scale grows the trace monotonically" `Slow
      scale_monotone;
    Alcotest.test_case "trace gauges account recordings" `Quick
      gauges_account_recordings;
    Alcotest.test_case "raw/packed stats consistent" `Quick stats_consistent;
  ]
