(* Cache simulator tests: exact behavior on hand traces for every fill
   policy and associativity, plus qcheck invariants. *)

let mk ?(assoc = Icache.Config.Direct) ?(fill = Icache.Config.Whole) ~size
    ~block () =
  Icache.Cache.create (Icache.Config.make ~assoc ~fill ~size ~block ())

let feed cache addrs =
  List.map (fun a -> (Icache.Cache.access cache a).Icache.Cache.miss) addrs

let direct_mapped_conflicts () =
  (* 128B cache, 32B blocks -> 4 frames.  Addresses 0 and 128 conflict. *)
  let c = mk ~size:128 ~block:32 () in
  let misses = feed c [ 0; 4; 0; 128; 0; 128 ] in
  Alcotest.(check (list bool)) "conflict thrash"
    [ true; false; false; true; true; true ]
    misses;
  Alcotest.(check int) "traffic: 4 fills of 8 words" 32
    (Icache.Cache.words_fetched c)

let two_way_avoids_conflict () =
  let c = mk ~assoc:(Icache.Config.Ways 2) ~size:128 ~block:32 () in
  let misses = feed c [ 0; 128; 0; 128; 0 ] in
  Alcotest.(check (list bool)) "both lines resident"
    [ true; true; false; false; false ]
    misses

let lru_replacement () =
  (* Fully associative 96B cache of 32B blocks = 3 frames; touch 4 blocks
     and confirm the least recent goes. *)
  let c = mk ~assoc:Icache.Config.Full ~size:96 ~block:32 () in
  let addr_of_block b = b * 32 in
  ignore (feed c (List.map addr_of_block [ 0; 1; 2 ]));
  (* Touch 0 to refresh it, add block 3: victim must be block 1. *)
  ignore (feed c [ addr_of_block 0; addr_of_block 3 ]);
  let m = feed c [ addr_of_block 0; addr_of_block 2; addr_of_block 3; addr_of_block 1 ] in
  Alcotest.(check (list bool)) "1 was evicted, others resident"
    [ false; false; false; true ]
    m

let sectored_fill () =
  (* 64B blocks with 8B sectors: a miss fetches 2 words only, and a hit in
     a different sector of the same block is still a miss. *)
  let c = mk ~fill:(Icache.Config.Sectored 8) ~size:2048 ~block:64 () in
  let o1 = Icache.Cache.access c 0 in
  Alcotest.(check bool) "first miss" true o1.Icache.Cache.miss;
  Alcotest.(check int) "sector fetch = 2 words" 2 o1.Icache.Cache.fetched_words;
  let o2 = Icache.Cache.access c 4 in
  Alcotest.(check bool) "same sector hit" false o2.Icache.Cache.miss;
  let o3 = Icache.Cache.access c 8 in
  Alcotest.(check bool) "next sector misses" true o3.Icache.Cache.miss;
  Alcotest.(check int) "again 2 words" 2 o3.Icache.Cache.fetched_words

let partial_loading () =
  let c = mk ~fill:Icache.Config.Partial ~size:2048 ~block:64 () in
  (* Miss in the middle of a block: loads from word 8 (byte 32) to the end
     = 8 words. *)
  let o1 = Icache.Cache.access c 32 in
  Alcotest.(check int) "fetch to end of block" 8 o1.Icache.Cache.fetched_words;
  Alcotest.(check int) "word offset recorded" 8 o1.Icache.Cache.word_in_block;
  (* Later words of the block now hit... *)
  Alcotest.(check bool) "later word hits" false
    (Icache.Cache.access c 60).Icache.Cache.miss;
  (* ...but the front of the block is still absent: loads up to the first
     valid word only (4+8=32 -> words 0..7 invalid, fetch stops at 8). *)
  let o2 = Icache.Cache.access c 0 in
  Alcotest.(check bool) "front still missing" true o2.Icache.Cache.miss;
  Alcotest.(check int) "fetch stops at valid entry" 8 o2.Icache.Cache.fetched_words;
  (* Now the whole block is valid. *)
  Alcotest.(check bool) "front hits now" false
    (Icache.Cache.access c 16).Icache.Cache.miss;
  (* A conflicting block invalidates everything first. *)
  let o3 = Icache.Cache.access c (2048 + 16) in
  Alcotest.(check bool) "conflict miss" true o3.Icache.Cache.miss;
  Alcotest.(check int) "fetch from word 4 to end" 12 o3.Icache.Cache.fetched_words;
  let o4 = Icache.Cache.access c 0 in
  Alcotest.(check bool) "old block gone" true o4.Icache.Cache.miss

let next_line_prefetch () =
  let c = mk ~size:2048 ~block:64 () in
  let p =
    Icache.Cache.create
      (Icache.Config.make ~prefetch:true ~size:2048 ~block:64 ())
  in
  (* A miss at block 0 prefetches block 1: the sequential successor then
     hits in the prefetching cache but misses in the plain one. *)
  Alcotest.(check bool) "both miss block 0" true
    ((Icache.Cache.access c 0).Icache.Cache.miss
    && (Icache.Cache.access p 0).Icache.Cache.miss);
  Alcotest.(check int) "one prefetch issued" 1 (Icache.Cache.prefetches p);
  Alcotest.(check bool) "plain cache misses block 1" true
    (Icache.Cache.access c 64).Icache.Cache.miss;
  Alcotest.(check bool) "prefetching cache hits block 1" false
    (Icache.Cache.access p 64).Icache.Cache.miss;
  (* Prefetch traffic is counted. *)
  Alcotest.(check int) "traffic includes the prefetch" 32
    (Icache.Cache.words_fetched p);
  Alcotest.(check int) "but only one miss" 1 (Icache.Cache.misses p);
  (* Prefetch with a non-whole fill is rejected. *)
  match
    Icache.Config.make ~prefetch:true ~fill:Icache.Config.Partial ~size:2048
      ~block:64 ()
  with
  | exception Icache.Config.Invalid _ -> ()
  | _ -> Alcotest.fail "prefetch+partial accepted"

let config_validation () =
  let invalid f =
    match f () with
    | exception Icache.Config.Invalid _ -> ()
    | _ -> Alcotest.fail "expected Config.Invalid"
  in
  invalid (fun () -> Icache.Config.make ~size:100 ~block:64 ());
  invalid (fun () -> Icache.Config.make ~size:0 ~block:64 ());
  invalid (fun () -> Icache.Config.make ~size:2048 ~block:6 ());
  invalid (fun () ->
      Icache.Config.make ~fill:(Icache.Config.Sectored 24) ~size:2048 ~block:64 ());
  invalid (fun () ->
      Icache.Config.make ~assoc:(Icache.Config.Ways 3) ~size:2048 ~block:64 ())

(* --- qcheck properties over random address traces --- *)

let trace_gen =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 50 400) (map (fun a -> a * 4) (int_bound 4095)))

let replay config addrs =
  let c = Icache.Cache.create config in
  List.iter (fun a -> ignore (Icache.Cache.access c a)) addrs;
  c

let prop_ratios_bounded =
  QCheck.Test.make ~name:"ratios bounded and consistent" ~count:100 trace_gen
    (fun addrs ->
      let c =
        replay (Icache.Config.make ~size:512 ~block:32 ()) addrs
      in
      let miss = Icache.Cache.miss_ratio c in
      let traffic = Icache.Cache.traffic_ratio c in
      miss >= 0. && miss <= 1. && traffic >= 0.
      && Icache.Cache.invariant c
      && Icache.Cache.accesses c = List.length addrs)

let prop_direct_equals_one_way =
  QCheck.Test.make ~name:"direct = 1-way set associative" ~count:100 trace_gen
    (fun addrs ->
      let a = replay (Icache.Config.make ~size:512 ~block:32 ()) addrs in
      let b =
        replay
          (Icache.Config.make ~assoc:(Icache.Config.Ways 1) ~size:512 ~block:32 ())
          addrs
      in
      Icache.Cache.misses a = Icache.Cache.misses b
      && Icache.Cache.words_fetched a = Icache.Cache.words_fetched b)

let prop_lru_inclusion =
  (* LRU's inclusion property: a larger fully associative LRU cache never
     misses more. *)
  QCheck.Test.make ~name:"fully associative LRU inclusion" ~count:100
    trace_gen (fun addrs ->
      let small =
        replay
          (Icache.Config.make ~assoc:Icache.Config.Full ~size:512 ~block:32 ())
          addrs
      in
      let large =
        replay
          (Icache.Config.make ~assoc:Icache.Config.Full ~size:1024 ~block:32 ())
          addrs
      in
      Icache.Cache.misses large <= Icache.Cache.misses small)

let prop_sector_block_equals_whole =
  QCheck.Test.make ~name:"sector=block behaves like whole fill" ~count:100
    trace_gen (fun addrs ->
      let w = replay (Icache.Config.make ~size:512 ~block:32 ()) addrs in
      let s =
        replay
          (Icache.Config.make ~fill:(Icache.Config.Sectored 32) ~size:512
             ~block:32 ())
          addrs
      in
      Icache.Cache.misses w = Icache.Cache.misses s
      && Icache.Cache.words_fetched w = Icache.Cache.words_fetched s)

let prop_partial_traffic_bounded =
  (* Partial loading never transfers more words than whole-block fill. *)
  QCheck.Test.make ~name:"partial traffic <= whole traffic" ~count:100
    trace_gen (fun addrs ->
      let w = replay (Icache.Config.make ~size:512 ~block:64 ()) addrs in
      let p =
        replay
          (Icache.Config.make ~fill:Icache.Config.Partial ~size:512 ~block:64 ())
          addrs
      in
      Icache.Cache.words_fetched p <= Icache.Cache.words_fetched w)

let prop_sectored_traffic_formula =
  (* Sectored fill transfers exactly sector_size/4 words per miss. *)
  QCheck.Test.make ~name:"sectored traffic = misses * sector words"
    ~count:100 trace_gen (fun addrs ->
      let s =
        replay
          (Icache.Config.make ~fill:(Icache.Config.Sectored 8) ~size:512
             ~block:64 ())
          addrs
      in
      Icache.Cache.words_fetched s = 2 * Icache.Cache.misses s)

let suite =
  [
    Alcotest.test_case "direct-mapped conflicts" `Quick direct_mapped_conflicts;
    Alcotest.test_case "two-way avoids conflict" `Quick two_way_avoids_conflict;
    Alcotest.test_case "LRU replacement" `Quick lru_replacement;
    Alcotest.test_case "sectored fill" `Quick sectored_fill;
    Alcotest.test_case "partial loading" `Quick partial_loading;
    Alcotest.test_case "next-line prefetch" `Quick next_line_prefetch;
    Alcotest.test_case "config validation" `Quick config_validation;
    QCheck_alcotest.to_alcotest prop_ratios_bounded;
    QCheck_alcotest.to_alcotest prop_direct_equals_one_way;
    QCheck_alcotest.to_alcotest prop_lru_inclusion;
    QCheck_alcotest.to_alcotest prop_sector_block_equals_whole;
    QCheck_alcotest.to_alcotest prop_partial_traffic_bounded;
    QCheck_alcotest.to_alcotest prop_sectored_traffic_formula;
  ]
