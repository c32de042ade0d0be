(* Function layout, global layout and address map tests. *)

open Helpers

let func_layout_basics () =
  let w = diamond_weights () in
  let sel = Placement.Trace_select.select diamond_loop_func w in
  let lay = Placement.Func_layout.layout diamond_loop_func w sel in
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6);
  Alcotest.(check int) "entry placed first" 0 lay.Placement.Func_layout.order.(0);
  (* Every block here executed, so the whole function is active. *)
  Alcotest.(check int) "all active" 6 lay.Placement.Func_layout.active_blocks;
  (* The hot trace 1-2-4 is contiguous in the layout. *)
  let pos = Array.make 6 0 in
  Array.iteri (fun idx l -> pos.(l) <- idx) lay.Placement.Func_layout.order;
  Alcotest.(check int) "2 follows 1" (pos.(1) + 1) pos.(2);
  Alcotest.(check int) "4 follows 2" (pos.(2) + 1) pos.(4)

let zero_blocks_sink () =
  (* Blocks 3 and 5 never execute: they must sink below the active split. *)
  let w =
    Helpers.cfg_of_lists ~func_weight:1
      ~blocks:[ (0, 1); (1, 101); (2, 100); (4, 100) ]
      ~arcs:[ (0, 1, 1); (1, 2, 100); (2, 4, 100); (4, 1, 100) ]
  in
  let sel = Placement.Trace_select.select diamond_loop_func w in
  let lay = Placement.Func_layout.layout diamond_loop_func w sel in
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6);
  Alcotest.(check int) "four active blocks" 4
    lay.Placement.Func_layout.active_blocks;
  let pos = Array.make 6 0 in
  Array.iteri (fun idx l -> pos.(l) <- idx) lay.Placement.Func_layout.order;
  Alcotest.(check bool) "block 3 in the cold tail" true (pos.(3) >= 4);
  Alcotest.(check bool) "block 5 in the cold tail" true (pos.(5) >= 4);
  Alcotest.(check bool) "active bytes < total" true
    (lay.Placement.Func_layout.active_bytes
    < lay.Placement.Func_layout.total_bytes)

let unexecuted_function () =
  let lay = Placement.Func_layout.layout_unexecuted diamond_loop_func in
  Alcotest.(check int) "no active blocks" 0 lay.Placement.Func_layout.active_blocks;
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6)

let global_dfs_order () =
  (* Call graph: main -> a (90), main -> b (10), a -> c (50).
     DFS from main visiting heaviest first: main, a, c, b. *)
  let w =
    {
      Placement.Weight.pair =
        (fun caller callee ->
          match (caller, callee) with
          | 0, 1 -> 90
          | 0, 2 -> 10
          | 1, 3 -> 50
          | _ -> 0);
      callees =
        (function 0 -> [ 2; 1 ] | 1 -> [ 3 ] | _ -> []);
      entries = (fun _ -> 1);
      size = (fun _ -> 16);
    }
  in
  let g = Placement.Global_layout.layout 5 ~entry:0 w in
  Alcotest.(check (list int)) "weighted dfs + orphan sweep" [ 0; 1; 3; 2; 4 ]
    (Array.to_list g.Placement.Global_layout.order);
  Alcotest.(check bool) "permutation" true
    (Placement.Global_layout.is_permutation g 5)

let address_map_properties () =
  let b = Workloads.Registry.find "wc" in
  let p =
    Placement.Pipeline.run (Workloads.Bench.program b)
      ~inputs:[ Vm.Io.input [ "one two three\nfour\n" ] ]
  in
  let opt = p.Placement.Pipeline.optimized in
  let nat = p.Placement.Pipeline.natural in
  Alcotest.(check bool) "optimized disjoint" true
    (Helpers.is_disjoint opt);
  Alcotest.(check bool) "natural disjoint" true
    (Helpers.is_disjoint nat);
  Alcotest.(check int) "same total bytes" nat.Placement.Address_map.total_bytes
    opt.Placement.Address_map.total_bytes;
  Alcotest.(check bool) "effective <= total" true
    (opt.Placement.Address_map.effective_bytes
    <= opt.Placement.Address_map.total_bytes);
  Alcotest.(check bool) "natural effective = total" true
    (nat.Placement.Address_map.effective_bytes
    = nat.Placement.Address_map.total_bytes);
  (* Total equals the program's byte size. *)
  Alcotest.(check int) "total = program size"
    (Ir.Prog.total_byte_size p.Placement.Pipeline.program)
    opt.Placement.Address_map.total_bytes

let ph_intra () =
  let w = diamond_weights () in
  let lay = Placement.Ph_layout.layout diamond_loop_func w in
  Alcotest.(check bool) "permutation" true
    (Placement.Func_layout.is_permutation lay 6);
  Alcotest.(check int) "entry first" 0 lay.Placement.Func_layout.order.(0);
  (* P-H merges the heaviest arc first — here the loop backedge 4->1 — so
     the hot loop body {1,2,4} forms one chain (rotated), i.e. the three
     blocks occupy three consecutive layout slots. *)
  let pos = Array.make 6 0 in
  Array.iteri (fun idx l -> pos.(l) <- idx) lay.Placement.Func_layout.order;
  let hot = List.sort compare [ pos.(1); pos.(2); pos.(4) ] in
  (match hot with
  | [ a; b; c ] ->
    Alcotest.(check int) "hot loop contiguous (span)" 2 (c - a);
    Alcotest.(check int) "hot loop contiguous (middle)" (a + 1) b
  | _ -> assert false);
  Alcotest.(check int) "1 and 2 adjacent" (pos.(1) + 1) pos.(2);
  (* Zero-weight function: empty active region. *)
  let z =
    Placement.Ph_layout.layout diamond_loop_func
      (Helpers.cfg_of_lists ~func_weight:0 ~blocks:[] ~arcs:[])
  in
  Alcotest.(check int) "unexecuted inactive" 0 z.Placement.Func_layout.active_blocks

let ph_global () =
  (* main(0) calls a(1) 90x and b(2) 10x; a calls c(3) 50x; d(4) unused.
     Heaviest edges merge first: (0,1,90), (1,3,50), (0,2,10) — one group
     containing everything reachable, entry group first, orphan last. *)
  let w =
    {
      Placement.Weight.pair =
        (fun caller callee ->
          match (caller, callee) with
          | 0, 1 -> 90
          | 0, 2 -> 10
          | 1, 3 -> 50
          | _ -> 0);
      callees = (function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | _ -> []);
      entries = (fun fid -> if fid = 4 then 0 else 1);
      size = (fun _ -> 16);
    }
  in
  let g = Placement.Ph_layout.global 5 ~entry:0 w in
  Alcotest.(check bool) "permutation" true
    (Placement.Global_layout.is_permutation g 5);
  Alcotest.(check int) "entry group first" 0 g.Placement.Global_layout.order.(0);
  Alcotest.(check int) "orphan last" 4 g.Placement.Global_layout.order.(4)

let ph_end_to_end () =
  (* P-H maps are valid address maps and preserve program size. *)
  let ctx = Experiments.Context.create ~names:[ "tee" ] () in
  let e = List.hd (Experiments.Context.entries ctx) in
  let map = Experiments.Context.strategy_map e (Placement.Strategy.find "ph") in
  Alcotest.(check bool) "disjoint" true (Helpers.is_disjoint map);
  Alcotest.(check int) "same total bytes"
    (Experiments.Context.optimized_map e).Placement.Address_map.total_bytes
    map.Placement.Address_map.total_bytes

(* qcheck: address maps stay disjoint under random code scaling. *)
let prop_scaled_disjoint =
  QCheck.Test.make ~name:"scaled address maps disjoint" ~count:20
    (QCheck.make
       ~print:string_of_float
       QCheck.Gen.(map (fun x -> 0.3 +. (x *. 1.4)) (float_bound_exclusive 1.)))
    (fun factor ->
      let p = Ir.Lower.program caller_prog in
      let scaled = Ir.Prog.scale_code factor p in
      let map = Placement.Address_map.natural scaled in
      Helpers.is_disjoint map
      && map.Placement.Address_map.total_bytes
         = Ir.Prog.total_byte_size scaled)

let suite =
  [
    Alcotest.test_case "function layout basics" `Quick func_layout_basics;
    Alcotest.test_case "zero-weight blocks sink" `Quick zero_blocks_sink;
    Alcotest.test_case "unexecuted function" `Quick unexecuted_function;
    Alcotest.test_case "global DFS order" `Quick global_dfs_order;
    Alcotest.test_case "address map properties" `Quick address_map_properties;
    Alcotest.test_case "pettis-hansen intra" `Quick ph_intra;
    Alcotest.test_case "pettis-hansen global" `Quick ph_global;
    Alcotest.test_case "pettis-hansen end to end" `Quick ph_end_to_end;
    QCheck_alcotest.to_alcotest prop_scaled_disjoint;
  ]
