(* Layout-strategy layer tests: registry sanity, the ext-TSP and C3
   algorithms on hand-built weights, validity of every registered
   strategy's address map on every benchmark, and golden assertions that
   the refactored impact/natural/ph paths reproduce the pre-refactor
   maps byte for byte.  Every strategy's map on every benchmark, and the
   merge-driven strategies' maps on generated programs, are pinned by
   digest in test/vectors/maps/strategies.txt. *)

open Helpers

let registry_sane () =
  let ids = Placement.Strategy.ids () in
  Alcotest.(check int) "five strategies" 5 (List.length ids);
  Alcotest.(check bool) "ids unique" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  List.iter
    (fun s ->
      Alcotest.(check string)
        ("find roundtrips " ^ s.Placement.Strategy.id)
        s.Placement.Strategy.id
        (Placement.Strategy.find s.Placement.Strategy.id).Placement.Strategy.id)
    Placement.Strategy.all;
  Alcotest.check_raises "unknown strategy"
    (Placement.Strategy.Unknown_strategy "bogus") (fun () ->
      ignore (Placement.Strategy.find "bogus"));
  (* The experiment registry accepts the strategy-comparison alias. *)
  Alcotest.(check string) "runner alias" "17"
    (Experiments.Runner.find "strategy-comparison").Experiments.Runner.id

let exttsp_intra () =
  let w = diamond_weights () in
  let lay = Placement.Exttsp.layout diamond_loop_func w in
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6);
  Alcotest.(check int) "entry first" 0 lay.Placement.Func_layout.order.(0);
  Alcotest.(check int) "all active" 6 lay.Placement.Func_layout.active_blocks;
  (* The heaviest arc (4->1, weight 100) must be realized as a
     fall-through, and the hot loop body {1,2,4} must stay contiguous. *)
  let pos = Array.make 6 0 in
  Array.iteri (fun idx l -> pos.(l) <- idx) lay.Placement.Func_layout.order;
  Alcotest.(check int) "4 falls through to 1" (pos.(4) + 1) pos.(1);
  let hot = List.sort compare [ pos.(1); pos.(2); pos.(4) ] in
  (match hot with
  | [ a; b; c ] ->
    Alcotest.(check int) "hot loop contiguous (span)" 2 (c - a);
    Alcotest.(check int) "hot loop contiguous (middle)" (a + 1) b
  | _ -> assert false)

let exttsp_dead_blocks_sink () =
  (* Blocks 3 and 5 never execute: they sink below the active split. *)
  let w =
    Helpers.cfg_of_lists ~func_weight:1
      ~blocks:[ (0, 1); (1, 101); (2, 100); (4, 100) ]
      ~arcs:[ (0, 1, 1); (1, 2, 100); (2, 4, 100); (4, 1, 100) ]
  in
  let lay = Placement.Exttsp.layout diamond_loop_func w in
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6);
  Alcotest.(check int) "four active blocks" 4
    lay.Placement.Func_layout.active_blocks;
  let pos = Array.make 6 0 in
  Array.iteri (fun idx l -> pos.(l) <- idx) lay.Placement.Func_layout.order;
  Alcotest.(check bool) "block 3 in the cold tail" true (pos.(3) >= 4);
  Alcotest.(check bool) "block 5 in the cold tail" true (pos.(5) >= 4);
  (* Zero-weight function: empty active region. *)
  let z =
    Placement.Exttsp.layout diamond_loop_func
      (Helpers.cfg_of_lists ~func_weight:0 ~blocks:[] ~arcs:[])
  in
  Alcotest.(check int) "unexecuted inactive" 0
    z.Placement.Func_layout.active_blocks

let c3_weights ~size ~entries =
  (* main(0) calls a(1) 90x and b(2) 10x; a calls c(3) 50x; d(4) cold. *)
  {
    Placement.Weight.pair =
      (fun caller callee ->
        match (caller, callee) with
        | 0, 1 -> 90
        | 0, 2 -> 10
        | 1, 3 -> 50
        | _ -> 0);
    callees = (function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | _ -> []);
    entries;
    size = (fun _ -> size);
  }

let c3_global () =
  let w = c3_weights ~size:16 ~entries:(fun fid -> if fid = 4 then 0 else 1) in
  let g = Placement.C3_layout.global 5 ~entry:0 w in
  Alcotest.(check bool) "permutation" true
    (Placement.Global_layout.is_permutation g 5);
  (* Greedy by proximity gain: (0,1) w90 first, then (1,3) w50 joins the
     entry cluster, then (0,2) w10; cold d(4) sinks last. *)
  Alcotest.(check (list int)) "call-chain order" [ 0; 1; 3; 2; 4 ]
    (Array.to_list g.Placement.Global_layout.order)

let c3_cluster_cap () =
  (* Functions bigger than the cluster cap never merge: the layout
     degenerates to entry first, then density order, cold last. *)
  let entries = function 0 -> 1 | 1 -> 5 | 2 -> 10 | 3 -> 50 | _ -> 0 in
  let w = c3_weights ~size:10_000 ~entries in
  let g = Placement.C3_layout.global 5 ~entry:0 w in
  Alcotest.(check bool) "permutation" true
    (Placement.Global_layout.is_permutation g 5);
  Alcotest.(check (list int)) "density order under cap" [ 0; 3; 2; 1; 4 ]
    (Array.to_list g.Placement.Global_layout.order)

(* The merge engine on a hand-built gain table over ids 0..3.  (0,1) and
   (2,3) gain within epsilon of each other, (1,2) may never merge (C3's
   byte cap answers [None] the same way), and (0,2) gains only once 2
   and 3 are one group. *)
let greedy_merge_engine () =
  let eps = Placement.Greedy_merge.epsilon in
  let merges = ref [] and gain_calls = ref [] in
  let gain a b =
    gain_calls := (a, b) :: !gain_calls;
    match (a, b) with
    | 0, 1 -> Some (5.0, "0+1")
    | 2, 3 -> Some (5.0 +. (eps /. 2.), "2+3")
    | 0, 2 when List.mem_assoc (2, 3) !merges -> Some (1.0, "01+23")
    | _ -> None
  in
  let counter = Obs.Metrics.counter "test.greedy_merges" in
  let before = Obs.Metrics.value counter in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (fun () ->
      Placement.Greedy_merge.run ~counter
        ~pairs:(fun connect ->
          connect 3 2;
          connect 1 2;
          connect 0 1;
          connect 2 3;
          connect 2 2)
        ~gain
        ~merge:(fun a b m -> merges := ((a, b), m) :: !merges));
  Alcotest.(check (list (pair (pair int int) string)))
    "tie goes to the smaller pair; the None pair never merges"
    [ ((0, 1), "0+1"); ((2, 3), "2+3"); ((0, 2), "01+23") ]
    (List.rev !merges);
  Alcotest.(check int) "one counter bump per merge" 3
    (Obs.Metrics.value counter - before);
  (* (1,2) was re-keyed onto the survivor as (0,2), whose gain is asked
     again after each merge that changes 0 or 2. *)
  let calls = List.rev !gain_calls in
  Alcotest.(check int) "(1,2) asked once" 1
    (List.length (List.filter (( = ) (1, 2)) calls));
  Alcotest.(check int) "(0,2) recomputed after each merge" 2
    (List.length (List.filter (( = ) (0, 2)) calls));
  Alcotest.(check int) "(2,3) stays cached while 0 and 1 merge" 1
    (List.length (List.filter (( = ) (2, 3)) calls))

(* ------------------------------------------------------------------ *)
(* Whole-benchmark validity and golden equivalence                     *)
(* ------------------------------------------------------------------ *)

let check_same_map label (a : Placement.Address_map.t)
    (b : Placement.Address_map.t) =
  Alcotest.(check int)
    (label ^ ": total bytes")
    a.Placement.Address_map.total_bytes b.Placement.Address_map.total_bytes;
  Alcotest.(check int)
    (label ^ ": effective bytes")
    a.Placement.Address_map.effective_bytes
    b.Placement.Address_map.effective_bytes;
  Alcotest.(check bool)
    (label ^ ": block addresses byte-identical")
    true
    (a.Placement.Address_map.block_addr = b.Placement.Address_map.block_addr)

(* Build a strategy's map through the generic path (per-function layout
   + global order + Address_map.build), bypassing Pipeline.map_for's
   reuse of the pipeline's stored impact/natural maps. *)
let generic_map (p : Placement.Pipeline.t) (s : Placement.Strategy.t) =
  let program = p.Placement.Pipeline.program in
  let profile = p.Placement.Pipeline.profile in
  let layouts =
    Array.mapi
      (fun fid f ->
        s.Placement.Strategy.layout f
          (Placement.Weight.cfg_of_profile profile fid))
      program.Ir.Prog.funcs
  in
  let order =
    s.Placement.Strategy.global
      (Array.length program.Ir.Prog.funcs)
      ~entry:program.Ir.Prog.entry
      (Placement.Weight.call_of_profile profile)
  in
  Placement.Address_map.build program ~layouts ~order

(* Pre-refactor Pettis-Hansen map construction, exactly as the old
   Experiments.Context.ph_map built it. *)
let pre_refactor_ph_map (p : Placement.Pipeline.t) =
  let program = p.Placement.Pipeline.program in
  let layouts =
    Array.mapi
      (fun fid f ->
        Placement.Ph_layout.layout f
          (Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile fid))
      program.Ir.Prog.funcs
  in
  let order =
    Placement.Ph_layout.global
      (Array.length program.Ir.Prog.funcs)
      ~entry:program.Ir.Prog.entry
      (Placement.Weight.call_of_profile p.Placement.Pipeline.profile)
  in
  Placement.Address_map.build program ~layouts ~order

(* The digest perfbench's compile workload pins its maps with: total and
   effective bytes, then every block's address and word count. *)
let map_digest (m : Placement.Address_map.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d\n" m.total_bytes m.effective_bytes;
  Array.iteri
    (fun fid addrs ->
      Printf.bprintf b "%d:" fid;
      Array.iteri
        (fun l a -> Printf.bprintf b " %d/%d" a m.block_words.(fid).(l))
        addrs;
      Buffer.add_char b '\n')
    m.block_addr;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* test/vectors/maps/strategies.txt: "program strategy digest" lines. *)
let pinned_digests =
  lazy
    (List.filter_map
       (fun l ->
         match String.split_on_char ' ' l with
         | [ prog; strategy; digest ] when l.[0] <> '#' ->
           Some ((prog, strategy), digest)
         | _ -> None)
       (Helpers.read_lines
          (Helpers.vector_path "vectors/maps/strategies.txt")))

(* The map of [strategy] on [prog] is byte-identical to the pinned one. *)
let check_pinned prog (p : Placement.Pipeline.t) (s : Placement.Strategy.t) =
  let label = prog ^ "/" ^ s.Placement.Strategy.id in
  match List.assoc_opt (prog, s.id) (Lazy.force pinned_digests) with
  | None -> Alcotest.failf "%s: no pinned digest" label
  | Some digest ->
    Alcotest.(check string) (label ^ ": pinned map digest") digest
      (map_digest (Placement.Pipeline.map_for p s))

let check_benchmark name =
  let b = Workloads.Registry.find name in
  let p =
    Placement.Pipeline.run (Workloads.Bench.program b)
      ~inputs:(Workloads.Bench.profile_inputs b)
  in
  let program = p.Placement.Pipeline.program in
  let entry_fid = program.Ir.Prog.entry in
  List.iter
    (fun s ->
      let label = name ^ "/" ^ s.Placement.Strategy.id in
      let map = Placement.Pipeline.map_for p s in
      check_pinned name p s;
      (* Each block mapped exactly once onto disjoint ranges covering
         the whole program. *)
      Alcotest.(check bool) (label ^ ": disjoint") true
        (Helpers.is_disjoint map);
      Alcotest.(check int)
        (label ^ ": covers program")
        (Ir.Prog.total_byte_size program)
        map.Placement.Address_map.total_bytes;
      (* Entry function leads the layout where the strategy claims it. *)
      if s.Placement.Strategy.entry_first then
        Alcotest.(check int)
          (label ^ ": entry block placed first")
          Placement.Address_map.code_base
          map.Placement.Address_map.block_addr.(entry_fid).(0);
      (* Never-executed blocks land after the packed effective region
         where the strategy claims the split. *)
      if s.Placement.Strategy.splits_dead_code then begin
        let boundary =
          Placement.Address_map.code_base
          + map.Placement.Address_map.effective_bytes
        in
        Array.iteri
          (fun fid f ->
            let w =
              Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile fid
            in
            Array.iteri
              (fun l _ ->
                if w.Placement.Weight.func_weight = 0 || w.Placement.Weight.block l = 0
                then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: dead block %d.%d after effective region"
                       label fid l)
                    true
                    (map.Placement.Address_map.block_addr.(fid).(l) >= boundary))
              f.Ir.Prog.blocks)
          program.Ir.Prog.funcs
      end)
    Placement.Strategy.all;
  (* Goldens: the registry strategies reproduce the pre-refactor maps
     byte for byte. *)
  check_same_map (name ^ "/impact golden")
    (generic_map p Placement.Strategy.impact)
    p.Placement.Pipeline.optimized;
  check_same_map (name ^ "/natural golden")
    (generic_map p Placement.Strategy.natural)
    (Placement.Address_map.natural program);
  check_same_map (name ^ "/ph golden")
    (Placement.Pipeline.map_for p (Placement.Strategy.find "ph"))
    (pre_refactor_ph_map p)

let all_benchmarks_valid () =
  List.iter
    (fun b -> check_benchmark b.Workloads.Bench.name)
    Workloads.Registry.all

(* Small random CFGs are full of merges with equal gains, which only the
   tie-break decides, so the merge-driven strategies are also pinned on
   fifty generated programs, profiled the way the fuzzer profiles them. *)
let generated_maps_pinned () =
  for seed = 1 to 50 do
    let prog = Ir.Lower.program (Ir.Gen.generate ~size:120 seed) in
    let p = Placement.Pipeline.run prog ~inputs:[ Vm.Io.input [] ] in
    List.iter
      (fun id ->
        check_pinned
          (Printf.sprintf "seed-%d" seed)
          p
          (Placement.Strategy.find id))
      [ "ph"; "exttsp"; "c3" ]
  done

let strategy_rows_complete () =
  (* The comparison experiment yields one row per benchmark x strategy. *)
  let names = [ "tee"; "cmp" ] in
  let ctx = Experiments.Context.create ~names () in
  let rows = Experiments.Strategy_exp.compute ctx in
  Alcotest.(check int) "rows = benches x strategies"
    (List.length names * List.length Placement.Strategy.all)
    (List.length rows);
  (* The natural strategy can never beat every optimizer everywhere;
     sanity-check the rows carry real, distinct data. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "miss ratio in range" true
        (r.Experiments.Strategy_exp.miss >= 0.
        && r.Experiments.Strategy_exp.miss <= 1.))
    rows

let context_memoizes_strategies () =
  let ctx = Experiments.Context.create ~names:[ "tee" ] () in
  let e = List.hd (Experiments.Context.entries ctx) in
  let exttsp = Placement.Strategy.find "exttsp" in
  let m1 = Experiments.Context.strategy_map e exttsp in
  let m2 = Experiments.Context.strategy_map e exttsp in
  Alcotest.(check bool) "strategy map built once" true (m1 == m2);
  Alcotest.(check bool) "impact map is the pipeline's" true
    (Experiments.Context.strategy_map e Placement.Strategy.impact
    == Experiments.Context.optimized_map e);
  (* Simulation results come out of the hashtable cache on re-query. *)
  let config = Icache.Config.make ~size:2048 ~block:64 () in
  let t = Experiments.Context.trace e in
  let r1 = Experiments.Context.simulate e config m1 t in
  let r2 = Experiments.Context.simulate e config m1 t in
  Alcotest.(check bool) "simulation cached" true (r1 == r2)

let suite =
  [
    Alcotest.test_case "registry sane" `Quick registry_sane;
    Alcotest.test_case "exttsp intra" `Quick exttsp_intra;
    Alcotest.test_case "exttsp dead blocks sink" `Quick exttsp_dead_blocks_sink;
    Alcotest.test_case "c3 global" `Quick c3_global;
    Alcotest.test_case "c3 cluster cap" `Quick c3_cluster_cap;
    Alcotest.test_case "greedy merge engine" `Quick greedy_merge_engine;
    Alcotest.test_case "context memoizes strategies" `Quick
      context_memoizes_strategies;
    Alcotest.test_case "generated programs keep pinned maps" `Quick
      generated_maps_pinned;
    Alcotest.test_case "strategy rows complete" `Quick strategy_rows_complete;
    Alcotest.test_case "all strategies valid on all benchmarks" `Slow
      all_benchmarks_valid;
  ]
