(* The compressed trace store:

   - Store round-trip: the run-length/delta coder reproduces the exact
     pushed code sequence (QCheck over adversarial run shapes).
   - Every benchmark: the stored trace replays exactly the block
     sequence the VM streams, and the span-fused sweep over it
     matches the word-granular reference.
   - Scaled workloads keep the original semantics (same return value and
     output, strictly more fetches and functions).
   - The trace.* gauges and stats account raw vs stored bytes. *)

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

(* A real interpreter result for Trace.finish in the synthetic
   round-trip tests (its content is irrelevant there). *)
let dummy_result =
  lazy
    (let b = Workloads.Registry.find "cmp" in
     Vm.Interp.run (Workloads.Bench.program b) (Workloads.Bench.trace_input b))

(* --- Store round-trip on synthetic code sequences --- *)

(* Expand a run spec into the explicit packed-code list: [(base, len)]
   means codes base, base+1, ..., base+len-1.  Bases are arbitrary (runs
   can restart backwards, repeat, or jump far ahead), which exercises
   every sign and width of the zigzag delta. *)
let expand_runs spec =
  List.concat_map (fun (base, len) -> List.init len (fun k -> base + k)) spec

let codes_of_trace ct =
  let out = ref [] in
  Sim.Trace.iter_runs (fun ~code ~len ->
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

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"Trace push/replay identity (arbitrary runs)"
    ~count:200 runs_gen (fun spec ->
      let codes = expand_runs spec in
      let b = Sim.Trace.builder () in
      List.iter (Sim.Trace.push b) codes;
      let ct = Sim.Trace.finish b (Lazy.force dummy_result) in
      codes_of_trace ct = codes
      && Sim.Trace.dyn_blocks ct = List.length codes
      && (Sim.Trace.stats ct).Sim.Trace.st_raw_bytes = 8 * List.length codes)

(* Run coalescing: consecutive codes must land in one run, so the run
   count equals the number of breaks in the sequence. *)
let trace_coalesces () =
  let b = Sim.Trace.builder () in
  List.iter (Sim.Trace.push b) [ 5; 6; 7; 42; 43; 9; 5; 6 ];
  let s = Sim.Trace.stats (Sim.Trace.finish b (Lazy.force dummy_result)) in
  Alcotest.(check int) "4 runs" 4 s.Sim.Trace.st_runs;
  Alcotest.(check int) "8 blocks" 8 s.Sim.Trace.st_blocks;
  Alcotest.(check bool)
    "compressed below raw" true
    (s.Sim.Trace.st_stored_bytes < s.Sim.Trace.st_raw_bytes)

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
      codes.(!n) <- Sim.Trace.pack fid label;
      incr n)
    trace;
  let streamed = ref 0 and mismatches = ref 0 in
  let vm_result =
    Vm.Interp.run program input ~block_sink:(fun fid label ->
        let i = !streamed in
        if i >= Array.length codes || codes.(i) <> Sim.Trace.pack fid label
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
      (List.for_all2 Oracle.Word_sim.results_equal fast
         (List.map (fun c -> Oracle.Word_sim.run c map trace) diff_configs));
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
    (Vm.Interp.run program input ~block_sink:(fun fid label ->
         let code = Sim.Trace.pack fid label in
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
    QCheck_alcotest.to_alcotest prop_trace_roundtrip;
    Alcotest.test_case "Trace coalesces consecutive codes" `Quick
      trace_coalesces;
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
