(* Simulation-layer tests: trace capture/replay, the driver's metrics, and
   Table 4 classification. *)

open Helpers

let pack_unpack () =
  let code = Sim.Trace.pack 7 123456 in
  Alcotest.(check int) "fid" 7 (Sim.Trace.unpack_fid code);
  Alcotest.(check int) "label" 123456 (Sim.Trace.unpack_label code)

(* The plain block list of one execution, captured straight from the VM
   stream: the oracle the stored trace is checked against. *)
let stream_blocks prog input =
  let blocks = ref [] in
  let result =
    Vm.Interp.run prog input ~block_sink:(fun fid label ->
        blocks := (fid, label) :: !blocks)
  in
  (List.rev !blocks, result)

let trace_blocks trace =
  let blocks = ref [] in
  Sim.Trace.iter_blocks (fun fid label -> blocks := (fid, label) :: !blocks) trace;
  List.rev !blocks

let record_consistency () =
  let p = Ir.Lower.program caller_prog in
  let input = Vm.Io.input [] in
  let blocks, result = stream_blocks p input in
  let trace = Sim.Trace.record p input in
  Alcotest.(check int) "blocks recorded = blocks executed"
    result.Vm.Interp.dyn_blocks (Sim.Trace.dyn_blocks trace);
  Alcotest.(check bool) "replay = streamed block list" true
    (trace_blocks trace = blocks);
  (* Fetch expansion under the natural map equals the interpreter's count. *)
  let map = Placement.Address_map.natural p in
  Alcotest.(check int) "dyn_insns match" result.Vm.Interp.dyn_insns
    (Sim.Trace.dyn_insns map trace);
  Alcotest.(check int) "streamed fetch count" result.Vm.Interp.dyn_insns
    (List.fold_left
       (fun n (fid, label) ->
         n + map.Placement.Address_map.block_words.(fid).(label))
       0 blocks);
  (* All fetches land inside the program image. *)
  List.iter
    (fun (fid, label) ->
      let base = map.Placement.Address_map.block_addr.(fid).(label) in
      let words = map.Placement.Address_map.block_words.(fid).(label) in
      let last = base + ((words - 1) * Ir.Insn.bytes_per_insn) in
      if words > 0 && (base < 0 || last >= map.Placement.Address_map.total_bytes)
      then Alcotest.failf "block fetch range [%d,%d] out of range" base last)
    blocks

let driver_metrics () =
  let p = Ir.Lower.program caller_prog in
  let trace = Sim.Trace.record p (Vm.Io.input []) in
  let map = Placement.Address_map.natural p in
  (* A cache big enough for everything: only compulsory misses. *)
  let big = Icache.Config.make ~size:65536 ~block:64 () in
  let r = Sim.Driver.reference big map trace in
  Alcotest.(check int) "accesses = dyn insns"
    (Sim.Trace.dyn_insns map trace)
    r.Sim.Driver.accesses;
  let blocks_touched =
    (map.Placement.Address_map.total_bytes + 63) / 64
  in
  Alcotest.(check bool) "compulsory misses only" true
    (r.Sim.Driver.misses <= blocks_touched);
  Alcotest.(check bool) "traffic = 16 words per miss" true
    (r.Sim.Driver.words_fetched = 16 * r.Sim.Driver.misses);
  Alcotest.(check bool) "avg exec positive" true (r.Sim.Driver.avg_exec_insns > 0.);
  (* Effective access time ordering: blocking >= streaming >= 1. *)
  Alcotest.(check bool) "blocking slowest" true
    (r.Sim.Driver.eat_blocking >= r.Sim.Driver.eat_streaming);
  Alcotest.(check bool) "eat >= hit time" true (r.Sim.Driver.eat_streaming >= 1.)

let total (c : Sim.Classify.counts) =
  c.Sim.Classify.desirable + c.Sim.Classify.undesirable + c.Sim.Classify.neutral

let classification () =
  (* Force one trace per block (min_prob > 1 forbids all growth): then no
     transfer is ever "desirable", and every arc goes tail->head, i.e.
     everything is neutral. *)
  let b = Workloads.Registry.find "wc" in
  let p = Workloads.Bench.program b in
  let input = Vm.Io.input [ "a b\nc\n" ] in
  let prof = Vm.Profile.profile p [ input ] in
  let singleton_sel =
    Array.mapi
      (fun fid f ->
        Placement.Trace_select.select ~min_prob:1.5 f
          (Placement.Weight.cfg_of_profile prof fid))
      p.Ir.Prog.funcs
  in
  let counts = Sim.Classify.run singleton_sel (Vm.Interp.run p input) in
  Alcotest.(check int) "no desirable with singleton traces" 0
    counts.Sim.Classify.desirable;
  Alcotest.(check int) "no undesirable with singleton traces" 0
    counts.Sim.Classify.undesirable;
  Alcotest.(check bool) "all neutral" true (counts.Sim.Classify.neutral > 0);
  (* With real trace selection most transfers should be desirable. *)
  let sel =
    Array.mapi
      (fun fid f ->
        Placement.Trace_select.select f
          (Placement.Weight.cfg_of_profile prof fid))
      p.Ir.Prog.funcs
  in
  let c2 = Sim.Classify.run sel (Vm.Interp.run p input) in
  Alcotest.(check bool) "desirable dominates undesirable" true
    (c2.Sim.Classify.desirable > c2.Sim.Classify.undesirable);
  Alcotest.(check int) "same total transfers"
    (total counts) (total c2)

(* Table 4 classifies the recorded run: the interpreter result a trace
   recording keeps classifies exactly like a fresh run of the same
   program on the same input. *)
let prop_classify_recorded_run =
  QCheck.Test.make ~name:"classification of the recorded run = fresh run"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let input = Vm.Io.input [] in
      let pl =
        Placement.Pipeline.run
          (Ir.Lower.program (Ir.Gen.generate seed))
          ~inputs:[ input ]
      in
      let program = pl.Placement.Pipeline.program
      and sel = pl.Placement.Pipeline.selections in
      Sim.Classify.run sel (Sim.Trace.result (Sim.Trace.record program input))
      = Sim.Classify.run sel (Vm.Interp.run program input))

(* Stall cycles of one miss, read back through the accumulated effective
   access time: one access costs the one-cycle hit time plus its stall
   (memory latency 10). *)
let miss_stall policy ~words_per_block ~word_in_block ~run_words
    ~fetched_words =
  let t = Icache.Timing.create policy in
  Icache.Timing.on_miss t ~words_per_block ~word_in_block ~run_words
    ~fetched_words;
  int_of_float (Icache.Timing.effective_access_time t) - 1

let timing_model () =
  (* Blocking: always latency + whole block. *)
  Alcotest.(check int) "blocking" 26
    (miss_stall Icache.Timing.Blocking ~words_per_block:16
       ~word_in_block:3 ~run_words:5 ~fetched_words:16);
  (* Streaming: wait for words before the miss; leaving early pays the
     remaining fill. *)
  let s =
    miss_stall Icache.Timing.Streaming ~words_per_block:16
      ~word_in_block:0 ~run_words:16 ~fetched_words:16
  in
  Alcotest.(check int) "streaming straight-line run" 10 s;
  let s2 =
    miss_stall Icache.Timing.Streaming ~words_per_block:16
      ~word_in_block:8 ~run_words:0 ~fetched_words:16
  in
  (* miss at word 8, immediate branch: initial 18, tail = 26-18 = ... *)
  Alcotest.(check bool) "early branch pays the tail" true (s2 > 18 - 1);
  (* Partial: fill starts at the miss, minimal initial wait. *)
  let p =
    miss_stall Icache.Timing.Streaming_partial
      ~words_per_block:16 ~word_in_block:8 ~run_words:8 ~fetched_words:8
  in
  Alcotest.(check int) "partial straight-line" 10 p

let estimator () =
  (* A program that fits in the cache has zero estimated conflicts, and
     its compulsory count equals its executed memory blocks. *)
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  let map = Placement.Address_map.natural p in
  let big = Icache.Config.make ~size:65536 ~block:64 () in
  let est =
    Sim.Estimate.estimate big map
      ~block_weight:(Vm.Profile.block_weight prof)
      ~func_entries:(Vm.Profile.func_weight prof)
  in
  Alcotest.(check int) "no conflicts in a big cache" 0 est.Sim.Estimate.conflict;
  Alcotest.(check bool) "compulsory positive" true
    (est.Sim.Estimate.compulsory > 0);
  Alcotest.(check bool) "ratio sane" true
    (est.Sim.Estimate.est_miss_ratio >= 0.
    && est.Sim.Estimate.est_miss_ratio <= 1.);
  (* profile_fetches equals the profile's dynamic instruction count *)
  Alcotest.(check int) "fetches match profile" prof.Vm.Profile.dyn_insns
    est.Sim.Estimate.profile_fetches;
  (* A pathologically small cache must estimate conflicts for a two-hot-
     region program. *)
  let tiny = Icache.Config.make ~size:64 ~block:64 () in
  let est2 =
    Sim.Estimate.estimate tiny map
      ~block_weight:(Vm.Profile.block_weight prof)
      ~func_entries:(Vm.Profile.func_weight prof)
  in
  Alcotest.(check bool) "conflicts in a tiny cache" true
    (est2.Sim.Estimate.conflict > 0)

let suite =
  [
    Alcotest.test_case "pack/unpack" `Quick pack_unpack;
    Alcotest.test_case "analytical estimator" `Quick estimator;
    Alcotest.test_case "record consistency" `Quick record_consistency;
    Alcotest.test_case "driver metrics" `Quick driver_metrics;
    Alcotest.test_case "classification" `Quick classification;
    QCheck_alcotest.to_alcotest prop_classify_recorded_run;
    Alcotest.test_case "timing model" `Quick timing_model;
  ]
