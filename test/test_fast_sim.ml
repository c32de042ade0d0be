(* Differential tests for the span-fused fast simulation engine:
   [Icache.Cache.access_run] and [Sim.Driver.simulate] must be exactly
   equivalent — counters, miss events, and every derived metric — to the
   word-granular reference ([access] / [Oracle.Word_sim.run]), across
   all fill policies, associativities, and prefetch settings. *)

let config_pool =
  [
    Icache.Config.make ~size:512 ~block:32 ();
    Icache.Config.make ~size:512 ~block:32 ~prefetch:true ();
    Icache.Config.make ~size:512 ~block:32 ~assoc:(Icache.Config.Ways 2) ();
    Icache.Config.make ~size:512 ~block:64 ~assoc:Icache.Config.Full ();
    Icache.Config.make ~size:512 ~block:64 ~fill:(Icache.Config.Sectored 8) ();
    Icache.Config.make ~size:512 ~block:64 ~fill:(Icache.Config.Sectored 16)
      ~assoc:(Icache.Config.Ways 2) ();
    Icache.Config.make ~size:512 ~block:64 ~fill:Icache.Config.Partial ();
    Icache.Config.make ~size:256 ~block:64 ~fill:Icache.Config.Partial
      ~assoc:Icache.Config.Full ();
    Icache.Config.make ~size:2048 ~block:64 ~prefetch:true
      ~assoc:(Icache.Config.Ways 4) ();
    Icache.Config.make ~size:128 ~block:32 ~fill:(Icache.Config.Sectored 8)
      ~assoc:Icache.Config.Full ();
    (* 48-byte blocks and 3 or 5 sets: a generated run spans up to three
       blocks, so the set walk wraps inside one run at a non-power-of-two
       set count. *)
    Icache.Config.make ~size:144 ~block:48 ();
    Icache.Config.make ~size:288 ~block:48 ~assoc:(Icache.Config.Ways 2) ();
    Icache.Config.make ~size:240 ~block:48 ~fill:Icache.Config.Partial ();
    Icache.Config.make ~size:144 ~block:48 ~fill:(Icache.Config.Sectored 16)
      ();
  ]

(* --- access_run vs access on random sequential runs --- *)

type event = {
  chunk : int;
  at : int;
  word_in_block : int;
  fetched_words : int;
}

(* Replay [chunks] (a list of (addr, words) sequential runs) word by word
   through the reference engine, collecting the miss events. *)
let replay_words config chunks =
  let cache = Icache.Cache.create config in
  let events = ref [] in
  List.iteri
    (fun chunk (addr, words) ->
      for k = 0 to words - 1 do
        let o = Icache.Cache.access cache (addr + (k * 4)) in
        if o.Icache.Cache.miss then
          events :=
            {
              chunk;
              at = k;
              word_in_block = o.Icache.Cache.word_in_block;
              fetched_words = o.Icache.Cache.fetched_words;
            }
            :: !events
      done)
    chunks;
  (cache, List.rev !events)

let replay_runs config chunks =
  let cache = Icache.Cache.create config in
  let events = ref [] in
  List.iteri
    (fun chunk (addr, words) ->
      Icache.Cache.access_run cache ~addr ~words
        ~on_miss:(fun ~at ~word_in_block ~fetched_words ->
          events := { chunk; at; word_in_block; fetched_words } :: !events))
    chunks;
  (cache, List.rev !events)

let chunks_gen =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (a, w) -> Printf.sprintf "(%d,%d)" a w) l))
    QCheck.Gen.(
      list_size (int_range 20 120)
        (pair (map (fun a -> a * 4) (int_bound 1023)) (int_range 1 24)))

let prop_access_run_equals_access =
  QCheck.Test.make ~name:"access_run = per-word access (all configs)"
    ~count:60 chunks_gen (fun chunks ->
      List.for_all
        (fun config ->
          let ref_cache, ref_events = replay_words config chunks in
          let fast_cache, fast_events = replay_runs config chunks in
          ref_events = fast_events
          && Icache.Cache.accesses ref_cache = Icache.Cache.accesses fast_cache
          && Icache.Cache.misses ref_cache = Icache.Cache.misses fast_cache
          && Icache.Cache.words_fetched ref_cache
             = Icache.Cache.words_fetched fast_cache
          && Icache.Cache.prefetches ref_cache
             = Icache.Cache.prefetches fast_cache
          && Icache.Cache.invariant fast_cache)
        config_pool)

(* --- simulate vs reference on random programs --- *)

let seed_gen =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_simulate_equals_reference =
  QCheck.Test.make
    ~name:"simulate = per-config reference (random programs)" ~count:20
    seed_gen (fun seed ->
      let ast = Oracle.Gen.generate seed in
      let p = Ir.Lower.program ast in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input [])
      in
      List.for_all
        (fun map ->
          let fast = Sim.Driver.simulate config_pool map trace in
          let ref_ =
            List.map (fun c -> Oracle.Word_sim.run c map trace) config_pool
          in
          List.for_all2 Oracle.Word_sim.results_equal ref_ fast)
        [
          pl.Placement.Pipeline.optimized;
          pl.Placement.Pipeline.natural;
          (* ext-TSP maximises fall-through, so its spans are the longest *)
          Placement.Pipeline.map_for pl (Placement.Strategy.find "exttsp");
        ])

(* --- span fusion --- *)

(* A hand-built fixture: one function whose blocks sit at chosen
   addresses, and a trace over them, built straight into the store.
   The store needs an interpreter result; replay never reads it. *)
let fixture_result =
  lazy
    (Vm.Interp.run
       (Ir.Lower.program (Oracle.Gen.generate 1))
       (Vm.Io.input []))

let fixture_trace labels =
  let b = Sim.Trace.builder () in
  List.iter (fun l -> Sim.Trace.push b (Sim.Trace.pack 0 l)) labels;
  Sim.Trace.finish b (Lazy.force fixture_result)

(* Labels 0..7 as (byte address, words).  The zero-word block 1 has an
   address far from everything else, and 6 sits at 5's end. *)
let fixture_map =
  let blocks =
    [|
      (0, 10); (4096, 0); (40, 12); (88, 10); (16, 6); (1024, 20); (1104, 0);
      (608, 4);
    |]
  in
  {
    Placement.Address_map.block_addr = [| Array.map fst blocks |];
    block_words = [| Array.map snd blocks |];
    total_bytes = 4096;
    effective_bytes = 4096;
  }

(* One pass: 0 (+zero-word 1) +2 +3 is one span over bytes 0..128,
   crossing the 64 B boundary and ending exactly on the 128 B one.  7
   evicts the tail of that span from the small direct-mapped caches, so
   the backward jump to 4 starts a span that opens on hits and then
   misses; 2 and 3 extend it although their labels do not follow 4's.
   5 (+6) jumps far ahead, and 0 again jumps back. *)
let fixture_pass = [ 0; 1; 2; 3; 7; 4; 2; 3; 5; 6; 0; 1; 2; 3 ]

let spans_of map trace =
  let spans = ref [] in
  Sim.Trace.iter_spans map (fun a w -> spans := (a, w) :: !spans) trace;
  List.rev !spans

let fixture_spans () =
  Alcotest.(check (list (pair int int)))
    "maximal spans"
    [ (0, 32); (608, 4); (16, 28); (1024, 20); (0, 32) ]
    (spans_of fixture_map (fixture_trace fixture_pass))

let fixture_simulate () =
  let trace =
    fixture_trace (List.concat (List.init 4 (fun _ -> fixture_pass)))
  in
  let fast = Sim.Driver.simulate config_pool fixture_map trace in
  List.iter2
    (fun c r ->
      Alcotest.(check bool)
        (Icache.Config.describe c)
        true
        (Oracle.Word_sim.results_equal (Oracle.Word_sim.run c fixture_map trace) r))
    config_pool fast

(* Every fetched word, block by block, in execution order. *)
let words_of_blocks (map : Placement.Address_map.t) trace =
  let out = ref [] in
  Sim.Trace.iter_blocks
    (fun fid l ->
      let a = map.Placement.Address_map.block_addr.(fid).(l) in
      for k = 0 to map.Placement.Address_map.block_words.(fid).(l) - 1 do
        out := (a + (k * 4)) :: !out
      done)
    trace;
  List.rev !out

let prop_spans_cover_blocks =
  QCheck.Test.make
    ~name:"iter_spans = per-block walk, maximal (random programs)" ~count:20
    seed_gen (fun seed ->
      let p = Ir.Lower.program (Oracle.Gen.generate seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input [])
      in
      List.for_all
        (fun map ->
          let spans = spans_of map trace in
          let words =
            List.concat_map
              (fun (a, w) -> List.init w (fun k -> a + (k * 4)))
              spans
          in
          let rec maximal = function
            | (a, w) :: ((b, _) :: _ as rest) ->
                w > 0 && b <> a + (w * 4) && maximal rest
            | [ (_, w) ] -> w > 0
            | [] -> true
          in
          words = words_of_blocks map trace && maximal spans)
        [
          pl.Placement.Pipeline.natural;
          pl.Placement.Pipeline.optimized;
          Placement.Pipeline.map_for pl (Placement.Strategy.find "exttsp");
        ])

(* --- span programs --- *)

(* Expand a span program record by record, window copy by copy. *)
let expand (p : Sim.Trace.program) =
  let out = ref [] in
  Sim.Trace.iter_records
    (fun w repeat ->
      for _ = 1 to repeat do
        for i = p.window_start.(w) to p.window_start.(w + 1) - 1 do
          let id = p.windows.(i) in
          out := (p.span_addr.(id), p.span_words.(id)) :: !out
        done
      done)
    p;
  List.rev !out

let windows_bounded (p : Sim.Trace.program) =
  let ok = ref true in
  for w = 0 to Array.length p.window_start - 2 do
    let len = p.window_start.(w + 1) - p.window_start.(w) in
    if len < 1 || len > 8 then ok := false
  done;
  !ok

(* A loop-heavy trace over a program's own blocks: the recorded block
   sequence with random segments of 1 to 6 blocks repeated 2 to 40
   times in a row, the way a counted loop repeats its body.  Replay only
   reads block codes, so the trace need not be one the VM could run. *)
let loop_heavy rng trace =
  let blocks = ref [] in
  Sim.Trace.iter_blocks
    (fun fid l -> blocks := Sim.Trace.pack fid l :: !blocks)
    trace;
  let blocks = Array.of_list (List.rev !blocks) in
  let n = Array.length blocks in
  let b = Sim.Trace.builder () in
  let i = ref 0 in
  while !i < n do
    let len = min (1 + Random.State.int rng 6) (n - !i) in
    let reps =
      if Random.State.int rng 3 = 0 then 2 + Random.State.int rng 39 else 1
    in
    for _ = 1 to reps do
      for k = !i to !i + len - 1 do
        Sim.Trace.push b blocks.(k)
      done
    done;
    i := !i + len
  done;
  Sim.Trace.finish b (Sim.Trace.result trace)

(* On the recorded trace and on a loop-heavy one, whose repeats outrun
   the fold's lookahead and break part-way through a copy. *)
let prop_program_expands_to_spans =
  QCheck.Test.make
    ~name:"span program expands to iter_spans (random programs, every strategy)"
    ~count:20 seed_gen (fun seed ->
      let p = Ir.Lower.program (Oracle.Gen.generate seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input [])
      in
      let looped = loop_heavy (Random.State.make [| seed |]) trace in
      List.for_all
        (fun s ->
          let map = Placement.Pipeline.map_for pl s in
          List.for_all
            (fun trace ->
              let prog = Sim.Trace.program map trace in
              let spans = spans_of map trace in
              expand prog = spans
              && prog.Sim.Trace.nspans = List.length spans
              && windows_bounded prog)
            [ trace; looped ])
        Placement.Strategy.all)

(* Caches small enough that a loop's window misses on every copy (the
   walk never reaches a steady state) and large enough that it fits
   (every copy after the first all-hit one is skipped), under every
   fill policy, with and without prefetch (which needs whole-block
   fill). *)
let loop_configs =
  let open Icache.Config in
  [
    make ~size:64 ~block:16 ();
    make ~size:64 ~block:16 ~prefetch:true ();
    make ~size:128 ~block:16 ~assoc:(Ways 2) ~fill:Partial ();
    make ~size:128 ~block:32 ~assoc:Full ~fill:(Sectored 8) ();
    make ~size:96 ~block:32 ~assoc:(Ways 3) ~prefetch:true ();
    make ~size:4096 ~block:64 ();
    make ~size:4096 ~block:32 ~assoc:(Ways 2) ~fill:Partial ();
    make ~size:8192 ~block:64 ~assoc:(Ways 4) ~fill:(Sectored 16) ();
    make ~size:2048 ~block:64 ~assoc:Full ~fill:Partial ();
    make ~size:2048 ~block:64 ~assoc:Full ~prefetch:true ();
  ]

let prop_skip_equals_reference =
  QCheck.Test.make
    ~name:"steady-state skip = reference (loop-heavy traces, thrash and fit)"
    ~count:20 seed_gen (fun seed ->
      let p = Ir.Lower.program (Oracle.Gen.generate seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        loop_heavy (Random.State.make [| seed |])
          (Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input []))
      in
      List.for_all
        (fun map ->
          let fast = Sim.Driver.simulate loop_configs map trace in
          List.for_all2
            (fun c r -> Oracle.Word_sim.results_equal (Oracle.Word_sim.run c map trace) r)
            loop_configs fast)
        [ pl.Placement.Pipeline.optimized; pl.Placement.Pipeline.natural ])

(* --- hand-checked behavior of the bulk API --- *)

let partial_run_events () =
  (* 64B blocks, partial loading.  A run over bytes 32..127 spans two
     cache blocks: a miss at word 8 fills words 8..15 of block 0, then a
     miss at word 0 of block 1 fills the whole of block 1. *)
  let c =
    Icache.Cache.create
      (Icache.Config.make ~size:2048 ~block:64 ~fill:Icache.Config.Partial ())
  in
  let events = ref [] in
  Icache.Cache.access_run c ~addr:32 ~words:24
    ~on_miss:(fun ~at ~word_in_block ~fetched_words ->
      events := (at, word_in_block, fetched_words) :: !events);
  Alcotest.(check (list (triple int int int)))
    "two misses: run start and next block"
    [ (0, 8, 8); (8, 0, 16) ]
    (List.rev !events);
  Alcotest.(check int) "24 accesses" 24 (Icache.Cache.accesses c);
  Alcotest.(check int) "2 misses" 2 (Icache.Cache.misses c);
  (* The front of block 0 is still invalid: a later run over it misses
     and fills up to the valid tail. *)
  let events2 = ref [] in
  Icache.Cache.access_run c ~addr:0 ~words:8
    ~on_miss:(fun ~at ~word_in_block ~fetched_words ->
      events2 := (at, word_in_block, fetched_words) :: !events2);
  Alcotest.(check (list (triple int int int)))
    "front fill stops at the valid tail"
    [ (0, 0, 8) ]
    (List.rev !events2)

let sectored_run_events () =
  (* 64B block, 8B sectors: one run touching three sectors misses once
     per sector, two words each. *)
  let c =
    Icache.Cache.create
      (Icache.Config.make ~size:2048 ~block:64
         ~fill:(Icache.Config.Sectored 8) ())
  in
  let events = ref [] in
  Icache.Cache.access_run c ~addr:4 ~words:5
    ~on_miss:(fun ~at ~word_in_block ~fetched_words ->
      events := (at, word_in_block, fetched_words) :: !events);
  Alcotest.(check (list (triple int int int)))
    "a miss per touched sector"
    [ (0, 1, 2); (1, 2, 2); (3, 4, 2) ]
    (List.rev !events);
  Alcotest.(check int) "traffic = 3 sectors" 6 (Icache.Cache.words_fetched c)

let prefetch_run () =
  (* Whole-block prefetch: a run crossing into the prefetched successor
     block only misses once. *)
  let c =
    Icache.Cache.create
      (Icache.Config.make ~size:2048 ~block:64 ~prefetch:true ())
  in
  let misses = ref 0 in
  Icache.Cache.access_run c ~addr:0 ~words:32
    ~on_miss:(fun ~at:_ ~word_in_block:_ ~fetched_words:_ -> incr misses);
  Alcotest.(check int) "one miss over two blocks" 1 !misses;
  Alcotest.(check int) "one prefetch" 1 (Icache.Cache.prefetches c);
  Alcotest.(check int) "traffic = 2 blocks" 32 (Icache.Cache.words_fetched c)

let suite =
  [
    Alcotest.test_case "partial access_run events" `Quick partial_run_events;
    Alcotest.test_case "sectored access_run events" `Quick sectored_run_events;
    Alcotest.test_case "prefetch access_run" `Quick prefetch_run;
    QCheck_alcotest.to_alcotest prop_access_run_equals_access;
    QCheck_alcotest.to_alcotest prop_simulate_equals_reference;
    Alcotest.test_case "span fixture: maximal spans" `Quick fixture_spans;
    Alcotest.test_case "span fixture: simulate = reference" `Quick
      fixture_simulate;
    QCheck_alcotest.to_alcotest prop_spans_cover_blocks;
    QCheck_alcotest.to_alcotest prop_program_expands_to_spans;
    QCheck_alcotest.to_alcotest prop_skip_equals_reference;
  ]
