(* Abstract cache-state analysis: hand fixtures with known
   classifications (straight-line cold misses, a direct-mapped conflict
   pair, a first-miss loop body), the irreducible and iteration-cap
   degradations, QCheck properties (domain consistency and one shared
   stay tracker over generated programs, lattice monotonicity over
   random age vectors, the reverse-postorder solve against the
   round-robin oracle, one prepared program reused across geometries),
   -j stability, and the acceptance check that the certified ranking on
   yacc at 8KB agrees with the simulated impact-vs-natural ordering. *)

open Ir

let b ?size insns term =
  Cfg.mk_block ?size_override:size (Array.of_list insns) term

let cls_str = function
  | Analysis.Absint.Hit -> "hit"
  | Analysis.Absint.Miss -> "miss"
  | Analysis.Absint.First_miss si -> Printf.sprintf "first-miss@%d" si
  | Analysis.Absint.Unknown -> "unknown"

let check_cls what expected a fid label =
  let g = Analysis.Absint.gid a fid label in
  match a.Analysis.Absint.cls.(g) with
  | [| c |] ->
      Alcotest.(check string) what expected (cls_str c)
  | cs ->
      Alcotest.failf "%s: expected a single access, got %d" what
        (Array.length cs)

let record_trace prog =
  Sim.Trace.record prog (Vm.Io.input [])

let oracle_clean what ?configs prog map =
  let trace = record_trace prog in
  match
    Oracle.Absint_soundness.check ?configs ~strategy:"natural"
      (Analysis.Absint.prepare prog) map trace
  with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: oracle violation: %s" what (Diag.to_string d)

(* --- straight-line program that fits in cache ------------------------ *)

(* Three 16-byte blocks at 0/16/32: every line is touched exactly once,
   so each access is a guaranteed cold miss and the interval is exact. *)
let straight_prog =
  Prog.make ~entry:"main"
    [
      {
        Prog.name = "main";
        nparams = 0;
        nregs = 2;
        blocks =
          [|
            b ~size:4 [ Insn.Mov (0, Imm 1) ] (Jump 1);
            b ~size:4 [ Insn.Bin (Add, 0, Reg 0, Imm 1) ] (Jump 2);
            b ~size:4 [] (Ret (Some (Insn.Reg 0)));
          |];
      };
    ]

let straight_line_exact () =
  let map = Placement.Address_map.natural straight_prog in
  let config = Icache.Config.make ~size:128 ~block:16 () in
  let a =
    Analysis.Absint.analyze config map (Analysis.Absint.prepare straight_prog)
  in
  Alcotest.(check (option string)) "not gated" None a.Analysis.Absint.gated;
  check_cls "b0 cold" "miss" a 0 0;
  check_cls "b1 cold" "miss" a 0 1;
  check_cls "b2 cold" "miss" a 0 2;
  let tot = Analysis.Absint.totals a in
  Alcotest.(check int) "nothing unclassified" 0
    tot.Analysis.Absint.t_unknown;
  let iv = Analysis.Absint.interval a ~counts:(fun _ _ -> 1) in
  Alcotest.(check int) "exact lower bound" 3 iv.Analysis.Absint.lo;
  Alcotest.(check int) "exact upper bound" 3 iv.Analysis.Absint.hi;
  oracle_clean "straight line" ~configs:[ config ] straight_prog map

(* --- conflict pair and first-miss loop body -------------------------- *)

(* main: ten trips through b1 -> b2 -> b3.  All blocks are one 16-byte
   line; under the natural map b1 (addr 16) and b3 (addr 48) co-map in a
   32-byte direct-mapped cache and evict each other every iteration,
   while b2 (addr 32) owns its set for the whole loop. *)
let conflict_prog =
  Prog.make ~entry:"main"
    [
      {
        Prog.name = "main";
        nparams = 0;
        nregs = 3;
        blocks =
          [|
            b ~size:4 [ Insn.Mov (0, Imm 0) ] (Jump 1);
            b ~size:4 [ Insn.Bin (Lt, 1, Reg 0, Imm 10) ] (Br (Insn.Reg 1, 2, 4));
            b ~size:4 [ Insn.Bin (Add, 2, Reg 2, Imm 1) ] (Jump 3);
            b ~size:4 [ Insn.Bin (Add, 0, Reg 0, Imm 1) ] (Jump 1);
            b ~size:4 [] (Ret (Some (Insn.Reg 2)));
          |];
      };
    ]

let conflict_pair_always_miss () =
  let map = Placement.Address_map.natural conflict_prog in
  let config = Icache.Config.make ~size:32 ~block:16 () in
  let a =
    Analysis.Absint.analyze config map (Analysis.Absint.prepare conflict_prog)
  in
  Alcotest.(check (option string)) "not gated" None a.Analysis.Absint.gated;
  (* The header and the latch thrash one set; the middle block owns the
     other and is a first-miss once the loop is entered. *)
  check_cls "header thrashes" "miss" a 0 1;
  check_cls "latch thrashes" "miss" a 0 3;
  (match
     a.Analysis.Absint.cls.(Analysis.Absint.gid a 0 2)
   with
  | [| Analysis.Absint.First_miss si |] ->
      let s = a.Analysis.Absint.program.Analysis.Absint.scopes.(si) in
      Alcotest.(check int) "scope headed at the loop header" 1
        s.Analysis.Absint.s_header
  | [| c |] -> Alcotest.failf "body block should be first-miss, got %s" (cls_str c)
  | _ -> Alcotest.fail "body block should have one access");
  (* Executed counts: header 11 (ten true + one false trip), body and
     latch 10, entry/exit once.  The true miss count is 24: cold b0 and
     b4, all 11 header and all 10 latch thrashes, one first miss of b2.
     Both certified bounds must bracket it. *)
  let counts fid l =
    if fid <> 0 then 0 else match l with 0 | 4 -> 1 | 1 -> 11 | _ -> 10
  in
  let iv = Analysis.Absint.interval ~entries:(fun _ -> 1) a ~counts in
  Alcotest.(check bool) "lo sound" true (iv.Analysis.Absint.lo <= 24);
  Alcotest.(check bool) "hi sound" true (24 <= iv.Analysis.Absint.hi);
  oracle_clean "conflict pair" ~configs:[ config ] conflict_prog map

let loop_first_miss_body () =
  let map = Placement.Address_map.natural conflict_prog in
  (* Same program, conflict-free geometry: the whole loop fits, so every
     loop block is at worst a first miss and the certified interval
     under one loop entry collapses to the five cold misses. *)
  let config = Icache.Config.make ~size:128 ~block:16 () in
  let a =
    Analysis.Absint.analyze config map (Analysis.Absint.prepare conflict_prog)
  in
  Array.iter
    (fun label ->
      match a.Analysis.Absint.cls.(Analysis.Absint.gid a 0 label) with
      | [| Analysis.Absint.First_miss _ |] | [| Analysis.Absint.Hit |] -> ()
      | [| c |] ->
          Alcotest.failf "loop block %d should be first-miss or hit, got %s"
            label (cls_str c)
      | _ -> Alcotest.fail "one access per block expected")
    [| 1; 2; 3 |];
  let counts fid l =
    if fid <> 0 then 0
    else match l with 0 | 4 -> 1 | 1 -> 11 | _ -> 10
  in
  let iv = Analysis.Absint.interval ~entries:(fun _ -> 1) a ~counts in
  Alcotest.(check int) "five cold misses, certified exactly" 5
    iv.Analysis.Absint.hi;
  oracle_clean "first-miss loop" ~configs:[ config ] conflict_prog map

(* --- degradations ---------------------------------------------------- *)

(* Loop {1,2} has two distinct entries from block 0: irreducible. *)
let irreducible_prog =
  Prog.make ~entry:"main"
    [
      {
        Prog.name = "main";
        nparams = 0;
        nregs = 2;
        blocks =
          [|
            b
              [ Insn.Mov (0, Imm 1) ]
              (Call { callee = "knot"; args = []; dst = Some 1; ret_to = 1 });
            b [] (Ret (Some (Insn.Reg 1)));
          |];
      };
      {
        Prog.name = "knot";
        nparams = 0;
        nregs = 2;
        blocks =
          [|
            b [] (Br (Insn.Reg 0, 1, 2));
            b [ Insn.Bin (Sub, 0, Reg 0, Imm 1) ] (Jump 2);
            b [] (Br (Insn.Reg 0, 1, 3));
            b [] (Ret (Some (Insn.Imm 7)));
          |];
      };
    ]

let irreducible_degrades () =
  let map = Placement.Address_map.natural irreducible_prog in
  let config = Icache.Config.make ~size:128 ~block:16 () in
  let a =
    Analysis.Absint.analyze config map
      (Analysis.Absint.prepare irreducible_prog)
  in
  (* Not a whole-analysis gate: only the irreducible function loses its
     classifications, with a warning naming it. *)
  Alcotest.(check (option string)) "not gated" None a.Analysis.Absint.gated;
  let knot = Prog.func_index irreducible_prog "knot" in
  Array.iter
    (fun label ->
      Array.iter
        (fun c ->
          Alcotest.(check string)
            (Printf.sprintf "knot.b%d unclassified" label)
            "unknown" (cls_str c))
        a.Analysis.Absint.cls.(Analysis.Absint.gid a knot label))
    [| 0; 1; 2; 3 |];
  check_cls "main entry still classified" "miss" a 0 0;
  match
    List.filter
      (fun d ->
        d.Diag.func = Some "knot"
        && d.Diag.severity = Diag.Warning)
      a.Analysis.Absint.warnings
  with
  | [ d ] ->
      let contains msg needle =
        let n = String.length needle in
        let rec find i =
          i + n <= String.length msg
          && (String.sub msg i n = needle || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) "warning names irreducibility" true
        (contains d.Diag.message "irreducible")
  | ds ->
      Alcotest.failf "expected one irreducibility warning, got %d"
        (List.length ds)

(* The size-derived cap is never hit on real programs, so the capped
   path is reached through a solver capped at one pop. *)
let solver_cap_degrades () =
  let map = Placement.Address_map.natural conflict_prog in
  let config = Icache.Config.make ~size:32 ~block:16 () in
  let a =
    Analysis.Absint.analyze_with
      ~solve:(fun ~max_iters:_ -> Analysis.Dataflow.solve_values ~max_iters:1)
      config map
      (Analysis.Absint.prepare conflict_prog)
  in
  Alcotest.(check bool) "capped" true a.Analysis.Absint.capped;
  (match a.Analysis.Absint.gated with
  | Some reason ->
      Alcotest.(check bool) "gate names the cap" true
        (String.length reason > 0)
  | None -> Alcotest.fail "a capped solve must gate the analysis");
  let tot = Analysis.Absint.totals a in
  Alcotest.(check int) "everything unclassified" tot.Analysis.Absint.t_accesses
    tot.Analysis.Absint.t_unknown;
  (* Gated is still sound: the interval spans zero to every access. *)
  let iv = Analysis.Absint.interval a ~counts:(fun _ _ -> 1) in
  Alcotest.(check int) "lo collapses" 0 iv.Analysis.Absint.lo;
  Alcotest.(check int) "hi covers everything" iv.Analysis.Absint.accesses
    iv.Analysis.Absint.hi;
  Alcotest.(check bool) "cap warning surfaced" true
    (a.Analysis.Absint.warnings <> [])

(* --- QCheck properties ----------------------------------------------- *)

let prop_domains_consistent =
  QCheck.Test.make ~name:"must and may domains never contradict" ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let prog = Lower.program (Oracle.Gen.generate ~size:40 seed) in
      let map = Placement.Address_map.natural prog in
      let prepared = Analysis.Absint.prepare prog in
      List.for_all
        (fun config ->
          let a = Analysis.Absint.analyze config map prepared in
          a.Analysis.Absint.consistent)
        (* the soundness oracle's geometries: 512B/16B direct, 2-way *)
        [
          Icache.Config.make ~size:512 ~block:16 ();
          Icache.Config.make ~size:512 ~block:16 ~assoc:(Ways 2) ();
        ])

(* One tracker per program serves every analysis of it.  A naive
   counter, rebuilt per analysis from that analysis's own scopes, counts
   a stay whenever a scope header runs and the previous block is not in
   the scope's [s_body]; the shared tracker, built from the program and
   fed the trace once, must give the same interval under every E19 and
   oracle geometry and under the natural and IMPACT maps. *)
let naive_interval (a : Analysis.Absint.t) trace =
  let p = a.Analysis.Absint.program in
  let scopes = p.Analysis.Absint.scopes in
  let counts = Array.make p.Analysis.Absint.nnodes 0 in
  let entries = Array.make (Array.length scopes) 0 in
  let prev = ref (-1) in
  Sim.Trace.iter_blocks
    (fun fid l ->
      let g = Analysis.Absint.gid a fid l in
      counts.(g) <- counts.(g) + 1;
      Array.iteri
        (fun si (s : Analysis.Absint.scope) ->
          if
            s.Analysis.Absint.s_header_gid = g
            && (!prev < 0 || not (Array.mem !prev s.Analysis.Absint.s_body))
          then entries.(si) <- entries.(si) + 1)
        scopes;
      prev := g)
    trace;
  Analysis.Absint.interval a
    ~counts:(fun fid l -> counts.(Analysis.Absint.gid a fid l))
    ~entries:(fun si -> entries.(si))

let prop_shared_tracker =
  QCheck.Test.make ~name:"one tracker serves every analysis of a program"
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let p = Lower.program (Oracle.Gen.generate ~size:40 seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let prog = pl.Placement.Pipeline.program in
      let trace = Sim.Trace.record prog (Vm.Io.input []) in
      let prepared = Analysis.Absint.prepare prog in
      let k = Analysis.Absint.tracker prepared in
      Sim.Trace.iter_blocks (Analysis.Absint.track k) trace;
      let configs =
        [
          (* E19 *)
          Icache.Config.make ~size:2048 ~block:64 ();
          Icache.Config.make ~size:8192 ~block:64 ();
          Icache.Config.make ~size:4096 ~block:64 ~assoc:(Ways 2) ();
          (* soundness oracle *)
          Icache.Config.make ~size:512 ~block:16 ();
          Icache.Config.make ~size:512 ~block:16 ~assoc:(Ways 2) ();
        ]
      in
      List.for_all
        (fun map ->
          List.for_all
            (fun config ->
              let a = Analysis.Absint.analyze config map prepared in
              Analysis.Absint.interval a
                ~counts:(Analysis.Absint.tracked_counts k)
                ~entries:(Analysis.Absint.tracked_entries k)
              = naive_interval a trace)
            configs)
        [ pl.Placement.Pipeline.natural; pl.Placement.Pipeline.optimized ])

(* --- solver order -------------------------------------------------- *)

(* [analyze_with] under a solver that keeps the solutions it returns:
   the Must solve's, then the May solve's. *)
let analyze_keeping solve config map prepared =
  let solved = ref [] in
  let a =
    Analysis.Absint.analyze_with
      ~solve:(fun ~max_iters problem ->
        let s = solve ~max_iters problem in
        solved := s :: !solved;
        s)
      config map prepared
  in
  (a, List.rev !solved)

let product_solve ~max_iters p = Analysis.Dataflow.solve_values ~max_iters p
let oracle_solve ~max_iters p = Oracle.Round_robin.solve_values ~max_iters p

(* Everything an analysis reports except its pop counts. *)
let same_classes (a : Analysis.Absint.t) (b : Analysis.Absint.t) =
  a.Analysis.Absint.cls = b.Analysis.Absint.cls
  && a.Analysis.Absint.accesses = b.Analysis.Absint.accesses
  && a.Analysis.Absint.naccesses = b.Analysis.Absint.naccesses
  && a.Analysis.Absint.universe = b.Analysis.Absint.universe
  && a.Analysis.Absint.gated = b.Analysis.Absint.gated
  && a.Analysis.Absint.capped = b.Analysis.Absint.capped
  && a.Analysis.Absint.consistent = b.Analysis.Absint.consistent

(* The reverse-postorder solve and the round-robin oracle reach the same
   in- and out-states in both domains, so the same classification. *)
let orders_agree config map prepared =
  let a, sa = analyze_keeping product_solve config map prepared in
  let b, sb = analyze_keeping oracle_solve config map prepared in
  same_classes a b
  && List.length sa = 2
  && List.length sb = 2
  && List.for_all2
       (fun (x : _ Analysis.Dataflow.value_solution)
            (y : _ Analysis.Dataflow.value_solution) ->
         x.Analysis.Dataflow.v_in = y.Analysis.Dataflow.v_in
         && x.Analysis.Dataflow.v_out = y.Analysis.Dataflow.v_out
         && not x.Analysis.Dataflow.v_capped)
       sa sb

(* Direct-mapped, 2-way and 4-way, small enough to conflict on
   generated programs. *)
let order_configs =
  [
    Icache.Config.make ~size:512 ~block:16 ();
    Icache.Config.make ~size:512 ~block:16 ~assoc:(Ways 2) ();
    Icache.Config.make ~size:1024 ~block:16 ~assoc:(Ways 4) ();
  ]

let prop_order_independent name generate =
  QCheck.Test.make
    ~name:("solve order: reverse postorder = round robin, " ^ name)
    ~count:30
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let p = Lower.program (generate seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let prepared = Analysis.Absint.prepare pl.Placement.Pipeline.program in
      List.for_all
        (fun map ->
          List.for_all
            (fun config -> orders_agree config map prepared)
            order_configs)
        [ pl.Placement.Pipeline.natural; pl.Placement.Pipeline.optimized ])

(* [dead] is never called but calls [leaf], so [leaf]'s entry has a
   predecessor no path from [main] reaches, and [leaf]'s return edge
   leads into dead code.  A solve that skips the dead call block leaves
   its out-state at top, which the Must join at [leaf]'s entry keeps. *)
let dead_pred_prog =
  Prog.make ~entry:"main"
    [
      {
        Prog.name = "main";
        nparams = 0;
        nregs = 2;
        blocks =
          [|
            b ~size:4 [ Insn.Mov (0, Imm 1) ]
              (Call { callee = "leaf"; args = []; dst = Some 1; ret_to = 1 });
            b ~size:4 [] (Ret (Some (Insn.Reg 1)));
          |];
      };
      {
        Prog.name = "dead";
        nparams = 0;
        nregs = 2;
        blocks =
          [|
            b ~size:4 [ Insn.Mov (0, Imm 2) ]
              (Call { callee = "leaf"; args = []; dst = Some 1; ret_to = 1 });
            b ~size:4 [] (Ret (Some (Insn.Reg 1)));
          |];
      };
      {
        Prog.name = "leaf";
        nparams = 0;
        nregs = 1;
        blocks =
          [| b ~size:4 [ Insn.Mov (0, Imm 3) ] (Ret (Some (Insn.Reg 0))) |];
      };
    ]

let dead_pred_orders_agree () =
  let map = Placement.Address_map.natural dead_pred_prog in
  let prepared = Analysis.Absint.prepare dead_pred_prog in
  let dead = Prog.func_index dead_pred_prog "dead" in
  let open Analysis.Absint in
  Alcotest.(check bool) "dead code is unreachable" false
    prepared.reachable.(prepared.offsets.(dead));
  List.iter
    (fun config ->
      Alcotest.(check bool)
        ("same states and classes at " ^ Icache.Config.describe config)
        true
        (orders_agree config map prepared))
    (Icache.Config.make ~size:128 ~block:16 () :: order_configs)

(* Nothing an analysis does changes the prepared program it reads: one
   prepared program analysed at every geometry in turn gives what a
   fresh [prepare] per geometry gives, pop counts included. *)
let prop_prepared_reusable =
  QCheck.Test.make ~name:"one prepared program serves every geometry"
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let p = Lower.program (Oracle.Gen.generate ~size:40 seed) in
      let pl = Placement.Pipeline.run p ~inputs:[ Vm.Io.input [] ] in
      let prog = pl.Placement.Pipeline.program in
      let map = pl.Placement.Pipeline.optimized in
      let shared = Analysis.Absint.prepare prog in
      List.for_all
        (fun config ->
          let a = Analysis.Absint.analyze config map shared in
          let b =
            Analysis.Absint.analyze config map (Analysis.Absint.prepare prog)
          in
          same_classes a b
          && a.Analysis.Absint.must_iterations
             = b.Analysis.Absint.must_iterations
          && a.Analysis.Absint.may_iterations
             = b.Analysis.Absint.may_iterations
          && a.Analysis.Absint.warnings = b.Analysis.Absint.warnings
          && Analysis.Absint.interval a ~counts:(fun _ _ -> 3)
             = Analysis.Absint.interval b ~counts:(fun _ _ -> 3))
        (order_configs
        @ [
            Icache.Config.make ~size:2048 ~block:64 ();
            Icache.Config.make ~size:4096 ~block:64 ~assoc:(Ways 2) ();
            Icache.Config.make ~size:512 ~block:16 ~fill:Partial ();
          ]))

(* Random age vectors over a fixed line universe: the joins must be
   upper/lower bounds and the transfers monotone in the domain order
   (higher age = less knowledge for Must, more for May). *)
let prop_lattice_monotone =
  QCheck.Test.make ~name:"cachedom joins bound, transfers monotone"
    ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let config = Icache.Config.make ~assoc:(Icache.Config.Ways 2) ~size:64 ~block:16 () in
      let u = Analysis.Cachedom.universe config [| 0; 1; 2; 3; 5; 9; 13 |] in
      let rng = Workloads.Rng.create seed in
      let random_state () =
        let s = Analysis.Cachedom.top u in
        for i = 0 to u.Analysis.Cachedom.nlines - 1 do
          Bytes.set s i (Char.chr (Workloads.Rng.int rng (u.Analysis.Cachedom.ways + 1)))
        done;
        s
      in
      let age = Analysis.Cachedom.age in
      let le a b =
        (* pointwise age order *)
        let ok = ref true in
        for i = 0 to u.Analysis.Cachedom.nlines - 1 do
          if age a i > age b i then ok := false
        done;
        !ok
      in
      let a = random_state () and c = random_state () in
      let line = Workloads.Rng.int rng u.Analysis.Cachedom.nlines in
      let must = Analysis.Cachedom.must_lattice u in
      let may = Analysis.Cachedom.may_lattice u in
      let join (l : _ Analysis.Dataflow.lattice) x y =
        let d = Analysis.Cachedom.copy x in
        l.Analysis.Dataflow.join_into ~dst:d y;
        d
      in
      let jm = join must a c and jy = join may a c in
      (* Must join is a pointwise upper bound, May join a lower bound. *)
      le a jm && le c jm && le jy a && le jy c
      &&
      (* Transfers preserve the pointwise order in both domains; the
         comparable pair is (may-join, must-join): jy <= a <= jm. *)
      let lo = jy and hi = jm in
      let tlo_m = Analysis.Cachedom.copy lo
      and thi_m = Analysis.Cachedom.copy hi in
      Analysis.Cachedom.access_must u tlo_m line;
      Analysis.Cachedom.access_must u thi_m line;
      let tlo_y = Analysis.Cachedom.copy lo
      and thi_y = Analysis.Cachedom.copy hi in
      Analysis.Cachedom.access_may u tlo_y line;
      Analysis.Cachedom.access_may u thi_y line;
      le tlo_m thi_m && le tlo_y thi_y)

(* --- -j stability and the yacc acceptance ranking -------------------- *)

let stability_across_pools () =
  let summaries () =
    let ctx = Experiments.Context.create ~names:[ "cmp"; "wc" ] () in
    List.map Experiments.Absint_exp.summary (Experiments.Absint_exp.sweep ctx)
  in
  let serial = summaries () in
  let parallel = Placement.Pool.with_default 4 summaries in
  Alcotest.(check (list string)) "classification identical at -j 1 and -j 4"
    serial parallel

let yacc_8kb_ranking () =
  let ctx = Experiments.Context.create ~names:[ "yacc" ] () in
  let e = List.hd (Experiments.Context.entries ctx) in
  let config = Icache.Config.make ~size:8192 ~block:64 () in
  let results =
    Experiments.Absint_exp.sweep ~config
      ~strategies:(List.map Placement.Strategy.find [ "impact"; "natural" ])
      ctx
  in
  let certified s =
    (List.find
       (fun (r : Experiments.Absint_exp.result) ->
         r.Experiments.Absint_exp.strategy.Placement.Strategy.id = s)
       results)
      .Experiments.Absint_exp.certified
      .Analysis.Absint.hi
  in
  let simulated s =
    (Experiments.Context.simulate e config
       (Experiments.Context.strategy_map e (Placement.Strategy.find s))
       (Experiments.Context.trace e))
      .Sim.Driver.misses
  in
  let ci = certified "impact" and cn = certified "natural" in
  let si = simulated "impact" and sn = simulated "natural" in
  Alcotest.(check bool)
    (Printf.sprintf
       "certified hi %d < %d agrees with simulated %d < %d" ci cn si sn)
    true
    (ci < cn && si < sn)

let suite =
  [
    Alcotest.test_case "straight line: exact cold interval" `Quick
      straight_line_exact;
    Alcotest.test_case "direct-mapped conflict pair always misses" `Quick
      conflict_pair_always_miss;
    Alcotest.test_case "fitting loop body is first-miss" `Quick
      loop_first_miss_body;
    Alcotest.test_case "irreducible function degrades, rest classified"
      `Quick irreducible_degrades;
    Alcotest.test_case "iteration cap gates soundly" `Quick
      solver_cap_degrades;
    QCheck_alcotest.to_alcotest prop_domains_consistent;
    QCheck_alcotest.to_alcotest prop_shared_tracker;
    QCheck_alcotest.to_alcotest prop_lattice_monotone;
    QCheck_alcotest.to_alcotest
      (prop_order_independent "generate" (Oracle.Gen.generate ~size:40));
    QCheck_alcotest.to_alcotest
      (prop_order_independent "generate_deep"
         (Oracle.Gen.generate_deep ?size:None));
    Alcotest.test_case "solve order: dead predecessor" `Quick
      dead_pred_orders_agree;
    QCheck_alcotest.to_alcotest prop_prepared_reusable;
    Alcotest.test_case "sweep identical across pool sizes" `Quick
      stability_across_pools;
    Alcotest.test_case "yacc at 8KB: certified ranking matches simulation"
      `Quick yacc_8kb_ranking;
  ]
