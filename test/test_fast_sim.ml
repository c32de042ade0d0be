(* Differential tests for the block-granular fast simulation engine:
   [Icache.Cache.access_run] and [Sim.Driver.simulate] must be exactly
   equivalent — counters, miss events, and every derived metric — to the
   word-granular reference ([access] / [Sim.Driver.reference]), across
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

let seed_gen =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_simulate_equals_reference =
  QCheck.Test.make
    ~name:"simulate = per-config reference (random programs)" ~count:20
    seed_gen (fun seed ->
      let ast = Gen_prog.generate seed in
      let p = Ir.Lower.program ast in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let trace =
        Sim.Trace.record pl.Placement.Pipeline.program (Vm.Io.input [])
      in
      List.for_all
        (fun map ->
          let fast = Sim.Driver.simulate config_pool map trace in
          let ref_ =
            List.map (fun c -> Sim.Driver.reference c map trace) config_pool
          in
          List.for_all2 results_equal ref_ fast)
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
  ]
