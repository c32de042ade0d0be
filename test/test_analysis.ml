(* Static-analysis layer: dominators on hand-built CFGs (including an
   irreducible one), natural-loop nesting, the reachability unification
   and the dataflow solver's iteration cap, a dominator/reachability
   consistency property over generated programs, and the layout linter
   (hand-built error input, golden output on the cmp benchmark, static
   ranking, and the no-simulation guarantee). *)

open Ir

let b insns term = Cfg.mk_block (Array.of_list insns) term

(* A genuine diamond inside a loop (unlike [Helpers.diamond_loop_func],
   whose cold arm exists only in its hand-built weights):

       0
       |
       1 <----+        (loop header; 1 -> 6 exits)
       |      |
       2      |        (diamond head)
      / \     |
     3   4    |
      \ /     |
       5 -----+        (join + latch)
       |
       6 (exit)                                                  *)
let diamond : Prog.func =
  {
    Prog.name = "diamond";
    nparams = 1;
    nregs = 4;
    blocks =
      [|
        b [ Insn.Mov (1, Imm 0) ] (Jump 1);
        b [ Insn.Bin (Lt, 2, Reg 1, Reg 0) ] (Br (Insn.Reg 2, 2, 6));
        b [ Insn.Bin (Lt, 2, Reg 3, Reg 1) ] (Br (Insn.Reg 2, 3, 4));
        b [ Insn.Bin (Add, 3, Reg 3, Reg 1) ] (Jump 5);
        b [ Insn.Bin (Sub, 3, Reg 3, Reg 1) ] (Jump 5);
        b [ Insn.Bin (Add, 1, Reg 1, Imm 1) ] (Jump 1);
        b [] (Ret (Some (Insn.Reg 3)));
      |];
  }

(* Entry jumps straight to the exit; block 1 is statically dead. *)
let dead_block_func : Prog.func =
  {
    Prog.name = "deadblock";
    nparams = 0;
    nregs = 1;
    blocks = [| b [] (Jump 2); b [] (Jump 2); b [] (Ret None) |];
  }

(* The classic irreducible shape: a two-entry cycle {1,2}.

       0 -> 1 -> 2 -> {1, 3}
       0 -> 2                                                    *)
let irreducible_func : Prog.func =
  {
    Prog.name = "irreducible";
    nparams = 1;
    nregs = 1;
    blocks =
      [|
        b [] (Br (Insn.Reg 0, 1, 2));
        b [] (Jump 2);
        b [] (Br (Insn.Reg 0, 1, 3));
        b [] (Ret None);
      |];
  }

(* Two properly nested natural loops: outer header 1 (latch 4), inner
   header 2 (latch 3). *)
let nested_loops_func : Prog.func =
  {
    Prog.name = "nested";
    nparams = 0;
    nregs = 1;
    blocks =
      [|
        b [ Insn.Mov (0, Imm 0) ] (Jump 1);
        b [] (Br (Insn.Reg 0, 2, 5));
        b [] (Br (Insn.Reg 0, 3, 4));
        b [] (Jump 2);
        b [] (Jump 1);
        b [] (Ret None);
      |];
  }

(* A self-loop at 1, a loop {2, 3} with latch 3, and a dead block 5
   that jumps into that latch. *)
let self_loop_func : Prog.func =
  {
    Prog.name = "selfloop";
    nparams = 1;
    nregs = 1;
    blocks =
      [|
        b [] (Jump 1);
        b [] (Br (Insn.Reg 0, 1, 2));
        b [] (Br (Insn.Reg 0, 3, 4));
        b [] (Jump 2);
        b [] (Ret None);
        b [] (Jump 3);
      |];
  }

let labels n = List.init n Fun.id

(* --- dominators ------------------------------------------------------ *)

(* All dominators of a node, from the node itself up to the root; [[]]
   when disconnected. *)
let dom_set (t : Analysis.Dom.t) v =
  let rec up v acc =
    if v = t.Analysis.Dom.root then List.rev (v :: acc)
    else up t.Analysis.Dom.idom.(v) (v :: acc)
  in
  if t.Analysis.Dom.idom.(v) < 0 then [] else up v []

(* Tree depth of a node (root = 0); -1 when disconnected. *)
let depth t v = List.length (dom_set t v) - 1

let dominators_diamond () =
  let dom = Analysis.Dom.dominators diamond in
  Alcotest.(check (list int))
    "idom per block" [ 0; 0; 1; 2; 2; 2; 1 ]
    (Array.to_list dom.Analysis.Dom.idom);
  Alcotest.(check bool) "loop head dominates latch" true
    (Analysis.Dom.dominates dom 1 5);
  Alcotest.(check bool) "arm does not dominate join" false
    (Analysis.Dom.dominates dom 3 5);
  Alcotest.(check bool) "reflexive" true (Analysis.Dom.dominates dom 3 3);
  Alcotest.(check (list int))
    "dom_set walks to the root" [ 5; 2; 1; 0 ] (dom_set dom 5);
  Alcotest.(check int) "depth of join" 3 (depth dom 5);
  Alcotest.(check int) "depth of entry" 0 (depth dom 0)

let dominators_dead_blocks () =
  let dom = Analysis.Dom.dominators dead_block_func in
  Alcotest.(check int) "dead block disconnected" (-1)
    dom.Analysis.Dom.idom.(1);
  Alcotest.(check bool) "nothing dominates a dead block" false
    (Analysis.Dom.dominates dom 0 1);
  Alcotest.(check (list int)) "empty dom_set" [] (dom_set dom 1);
  Alcotest.(check int) "depth is -1" (-1) (depth dom 1)

(* --- loops ----------------------------------------------------------- *)

let loop_nesting () =
  let t = Analysis.Loops.of_func nested_loops_func in
  Alcotest.(check bool) "reducible" true t.Analysis.Loops.reducible;
  Alcotest.(check int) "two loops" 2 (Array.length t.Analysis.Loops.loops);
  let outer = t.Analysis.Loops.loops.(0)
  and inner = t.Analysis.Loops.loops.(1) in
  Alcotest.(check int) "outer header" 1 outer.Analysis.Loops.header;
  Alcotest.(check (list int))
    "outer body" [ 1; 2; 3; 4 ] outer.Analysis.Loops.body;
  Alcotest.(check int) "outer depth" 1 outer.Analysis.Loops.depth;
  Alcotest.(check int) "inner header" 2 inner.Analysis.Loops.header;
  Alcotest.(check (list int)) "inner body" [ 2; 3 ] inner.Analysis.Loops.body;
  Alcotest.(check int) "inner depth" 2 inner.Analysis.Loops.depth;
  (* The diamond has exactly one loop: header 1, body everything but the
     entry and the exit, latch 5. *)
  let d = Analysis.Loops.of_func diamond in
  Alcotest.(check int) "diamond has one loop" 1
    (Array.length d.Analysis.Loops.loops);
  Alcotest.(check (list int))
    "diamond loop body" [ 1; 2; 3; 4; 5 ]
    d.Analysis.Loops.loops.(0).Analysis.Loops.body

let irreducible_detected () =
  let t = Analysis.Loops.of_func irreducible_func in
  Alcotest.(check bool) "not reducible" false t.Analysis.Loops.reducible;
  Alcotest.(check int) "no natural loops" 0
    (Array.length t.Analysis.Loops.loops);
  Alcotest.(check bool) "diamond reducible" true
    (Analysis.Loops.of_func diamond).Analysis.Loops.reducible

(* --- loops against an on-stack DFS ----------------------------------- *)

(* The loop forest found the classic way, independent of [Dom] and of
   the numbering [Loops] classifies edges by: retreating edges from an
   on-stack DFS colouring, back edges by dominance (the target dominates
   the source when no path from the entry avoiding the target reaches
   the source), bodies by flooding predecessors from the latches.
   Returns the loops as (header, body, depth), by header, and whether
   every retreating edge is a back edge. *)
let reference_loops (f : Prog.func) =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let succs l = Cfg.successors blocks.(l) in
  let reach_avoiding avoid =
    let seen = Array.make n false in
    let rec go v =
      if v <> avoid && not seen.(v) then begin
        seen.(v) <- true;
        List.iter go (succs v)
      end
    in
    go 0;
    seen
  in
  let reach = reach_avoiding (-1) in
  let color = Array.make n 0 and retreating = ref [] in
  let rec visit u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if color.(v) = 0 then visit v
        else if color.(v) = 1 then retreating := (u, v) :: !retreating)
      (succs u);
    color.(u) <- 2
  in
  visit 0;
  let back, irreducible =
    List.partition
      (fun (u, v) -> u = v || not (reach_avoiding v).(u))
      !retreating
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun u _ -> List.iter (fun v -> preds.(v) <- u :: preds.(v)) (succs u))
    blocks;
  let bodies =
    List.map
      (fun h ->
        let in_body = Array.make n false in
        in_body.(h) <- true;
        let rec flood v =
          if reach.(v) && not in_body.(v) then begin
            in_body.(v) <- true;
            List.iter flood preds.(v)
          end
        in
        List.iter (fun (u, v) -> if v = h then flood u) back;
        (h, List.filter (fun l -> in_body.(l)) (labels n)))
      (List.sort_uniq compare (List.map snd back))
  in
  ( List.map
      (fun (h, body) ->
        let outer =
          List.filter (fun (h', b') -> h' <> h && List.mem h b') bodies
        in
        (h, body, 1 + List.length outer))
      bodies,
    irreducible = [] )

let loops_as_reference (f : Prog.func) =
  let t = Analysis.Loops.of_func f in
  ( Array.to_list
      (Array.map
         (fun (l : Analysis.Loops.loop) ->
           (l.Analysis.Loops.header, l.Analysis.Loops.body,
            l.Analysis.Loops.depth))
         t.Analysis.Loops.loops),
    t.Analysis.Loops.reducible )

let same_loops_as_reference (prog : Prog.program) =
  Array.for_all
    (fun f -> loops_as_reference f = reference_loops f)
    prog.Prog.funcs

let loops_reference_fixtures () =
  List.iter
    (fun (f : Prog.func) ->
      Alcotest.(check bool) (f.Prog.name ^ " as the reference") true
        (loops_as_reference f = reference_loops f))
    [
      diamond;
      dead_block_func;
      irreducible_func;
      nested_loops_func;
      self_loop_func;
    ];
  Alcotest.(check bool) "reference sees the irreducible cycle" false
    (snd (reference_loops irreducible_func));
  Alcotest.(check bool) "self-loop, and no dead block in a body" true
    (loops_as_reference self_loop_func
    = ([ (1, [ 1 ], 1); (2, [ 2; 3 ], 1) ], true))

let loops_reference_workloads () =
  List.iter
    (fun (b : Workloads.Bench.t) ->
      let prog = Workloads.Bench.program b in
      List.iter
        (fun (what, p) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s) as the reference" b.Workloads.Bench.name
               what)
            true (same_loops_as_reference p))
        [ ("lowered", prog); ("simplified", fst (Ir.Simplify.program prog)) ])
    Workloads.Registry.all

let prop_loops_reference name generate =
  QCheck.Test.make
    ~name:("loops equal the on-stack DFS reference (" ^ name ^ ")")
    ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed -> same_loops_as_reference (Lower.program (generate seed)))

(* --- reachability unification ---------------------------------------- *)

(* Reachability as a one-bit instance of the dataflow solver: the entry
   boundary carries [true], the transfer is the identity and the join is
   disjunction, so [v_out.(l)] holds iff block [l] is reachable. *)
let reach_dataflow ?max_iters (f : Prog.func) =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let preds = Analysis.Dataflow.cfg_preds blocks in
  Analysis.Dataflow.solve_values ?max_iters
    {
      Analysis.Dataflow.v_nnodes = n;
      v_succs = (fun l -> Cfg.successors blocks.(l));
      v_preds = (fun l -> preds.(l));
      v_boundary = (if n = 0 then [] else [ 0 ]);
      v_boundary_value = ref true;
      v_lattice =
        {
          Analysis.Dataflow.make = (fun () -> ref false);
          assign = (fun ~dst src -> dst := !src);
          join_into = (fun ~dst src -> dst := !dst || !src);
          equal = (fun a b -> !a = !b);
        };
      v_transfer = (fun _ ~src ~dst -> dst := !src);
    }

(* The join block 3's first predecessor (block 1) is dead, so its
   reachability comes only from joining the second one. *)
let dead_first_pred_func : Prog.func =
  {
    Prog.name = "deadfirstpred";
    nparams = 0;
    nregs = 1;
    blocks = [| b [] (Jump 2); b [] (Jump 3); b [] (Jump 3); b [] (Ret None) |];
  }

let reach_unified () =
  Alcotest.(check (list bool))
    "dead block found" [ true; false; true ]
    (Array.to_list (Cfg.reachable dead_block_func.Prog.blocks));
  (* One definition of "dead block": the canonical [Ir.Cfg.reachable]
     DFS, and the dataflow phrasing of the same fact agrees with it. *)
  List.iter
    (fun (f : Prog.func) ->
      let reach = Cfg.reachable f.Prog.blocks in
      let df = reach_dataflow f in
      Alcotest.(check bool) (f.Prog.name ^ " not capped") false
        df.Analysis.Dataflow.v_capped;
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (Printf.sprintf "dataflow reach of %s.b%d" f.Prog.name l)
            reach.(l) !(df.Analysis.Dataflow.v_out.(l)))
        (labels (Array.length f.Prog.blocks)))
    [
      diamond;
      dead_block_func;
      irreducible_func;
      nested_loops_func;
      dead_first_pred_func;
    ]

(* A one-pop cap stops the worklist before the fixpoint: the solution is
   flagged and carries exactly one Lint-stage warning. *)
let dataflow_cap () =
  let df = reach_dataflow ~max_iters:1 nested_loops_func in
  Alcotest.(check bool) "capped" true df.Analysis.Dataflow.v_capped;
  Alcotest.(check int) "one pop" 1 df.Analysis.Dataflow.v_iterations;
  match df.Analysis.Dataflow.v_warnings with
  | [ d ] ->
    Alcotest.(check bool) "Lint stage" true (d.Diag.stage = Diag.Lint);
    Alcotest.(check bool) "warning" true (d.Diag.severity = Diag.Warning)
  | ws -> Alcotest.failf "expected one cap warning, got %d" (List.length ws)

(* --- property: dominators are consistent with reachability ----------- *)

let prop_dom_reach =
  QCheck.Test.make ~name:"dominators consistent with reachability" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let prog = Lower.program (Oracle.Gen.generate ~size:30 seed) in
      Array.for_all
        (fun (f : Prog.func) ->
          let reach = Cfg.reachable f.Prog.blocks in
          let dom = Analysis.Dom.dominators f in
          let df = reach_dataflow f in
          List.for_all
            (fun l ->
              (* Entry dominates exactly the reachable blocks; every
                 dominator of a reachable block is itself reachable; the
                 dataflow instance agrees with the DFS. *)
              Analysis.Dom.dominates dom 0 l = reach.(l)
              && (reach.(l) = (dom.Analysis.Dom.idom.(l) >= 0))
              && List.for_all (fun d -> reach.(d)) (dom_set dom l)
              && reach.(l) = !(df.Analysis.Dataflow.v_out.(l)))
            (labels (Array.length f.Prog.blocks)))
        prog.Prog.funcs)

(* --- linter: hand-built error input ---------------------------------- *)

let no_calls =
  {
    Placement.Weight.pair = (fun _ _ -> 0);
    callees = (fun _ -> []);
    entries = (fun fid -> if fid = 0 then 5 else 0);
    size = (fun _ -> 0);
  }

let lint_dead_weight () =
  let program = Prog.make ~entry:"deadblock" [ dead_block_func ] in
  let weights _ =
    Helpers.cfg_of_lists ~func_weight:5
      ~blocks:[ (0, 5); (1, 3); (2, 5) ]
      ~arcs:[ (0, 2, 5); (1, 2, 3) ]
  in
  let input =
    {
      Analysis.Lint.prepared = Analysis.Absint.prepare program;
      weights;
      calls = no_calls;
      profile = None;
      map = Placement.Address_map.natural program;
      config = Icache.Config.make ~size:2048 ~block:64 ();
      strategy = None;
      min_prob = Placement.Trace_select.default_min_prob;
    }
  in
  let report = Analysis.Lint.run input in
  (match Analysis.Lint.errors report with
  | [ d ] ->
    Alcotest.(check string)
      "weight on a dead block is a lint error"
      "[error lint] deadblock.b1: statically unreachable block carries \
       profile weight 3"
      (Diag.to_string d);
    Alcotest.(check int) "the linter owns exit code 18" 18 (Diag.exit_code d)
  | ds -> Alcotest.failf "expected exactly one error, got %d" (List.length ds));
  (* Under the natural map the hot entry->exit arc jumps over the dead
     block, so the hot-arc pass fires too (as a warning). *)
  Alcotest.(check int) "hot arc broken weight" 5
    report.Analysis.Lint.hot_arc_broken;
  (match report.Analysis.Lint.findings with
  | first :: _ ->
    Alcotest.(check string)
      "errors sort before warnings" "unreachable" first.Analysis.Lint.pass
  | [] -> Alcotest.fail "no findings");
  Alcotest.(check (list (pair string int)))
    "per-pass census"
    [
      ("flow", 0); ("unreachable", 1); ("hot-arc", 1); ("loop-split", 0);
      ("set-conflict", 0); ("absint", 1);
    ]
    report.Analysis.Lint.by_pass;
  (* The sixth pass certified a nonzero cold-start bound: the interval
     is ordered and the guaranteed misses are weighted into [lo]. *)
  let c = report.Analysis.Lint.certified in
  Alcotest.(check bool) "certified interval ordered" true
    (0 < c.Analysis.Absint.lo && c.Analysis.Absint.lo <= c.Analysis.Absint.hi)

(* --- linter on a real benchmark -------------------------------------- *)

(* One shared context: the cmp pipeline and its strategy maps are memoized
   across the lint test cases. *)
let ctx = lazy (Experiments.Context.create ~names:[ "cmp" ] ())
let cmp_entry () = List.hd (Experiments.Context.entries (Lazy.force ctx))

let golden_lint_cmp () =
  let e = cmp_entry () in
  let r =
    Experiments.Lint_exp.lint_entry e (Placement.Strategy.find "impact")
  in
  Alcotest.(check string) "summary line"
    "cmp/impact: 2 finding(s) [flow=0  unreachable=0  hot-arc=0  \
     loop-split=0  set-conflict=1  absint=1]  certified misses [24, 680]  \
     conflict score 5.875  hot arcs broken 0/488774 (0.00%)"
    (Experiments.Lint_exp.summary r);
  (match r.Experiments.Lint_exp.report.Analysis.Lint.findings with
  | [ a; f ] ->
    (* Findings sort by score: the certified cold-start conflict (24
       weighted guaranteed misses) outranks the heuristic set-conflict
       warning. *)
    Alcotest.(check string) "pass" "absint" a.Analysis.Lint.pass;
    Alcotest.(check string) "certified finding"
      "[warning lint] main.b0 <impact>: certified conflict: 2 of 2 line \
       fetches always miss (weight 12)"
      (Diag.to_string a.Analysis.Lint.diag);
    Alcotest.(check string) "pass" "set-conflict" f.Analysis.Lint.pass;
    Alcotest.(check string) "finding"
      "[warning lint] put_octal3 <impact>: hot lines of put_octal3 and \
       main co-map to 1 of 32 cache sets (188 dynamic calls between them)"
      (Diag.to_string f.Analysis.Lint.diag)
  | fs -> Alcotest.failf "expected two findings, got %d" (List.length fs));
  (* The JSON report round-trips through the strict parser. *)
  let json =
    Obs.Json.parse_exn
      (Obs.Json.to_string (Experiments.Lint_exp.report_json ~results:[ r ]))
  in
  (match Obs.Json.member "schema" json with
  | Some (Obs.Json.String s) ->
    Alcotest.(check string) "schema" "impact.lint/v1" s
  | _ -> Alcotest.fail "schema missing");
  match Obs.Json.member "results" json with
  | Some (Obs.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "results should hold exactly the one linted strategy"

let lint_ranking_no_simulation () =
  let e = cmp_entry () in
  (* Force the memoized pipeline and maps first, so the spans recorded
     below belong to the lint run alone. *)
  List.iter
    (fun s -> ignore (Experiments.Context.strategy_map e s))
    Placement.Strategy.all;
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  let results = Experiments.Lint_exp.sweep e in
  let events = Obs.Span.events () in
  Obs.Span.set_enabled false;
  Obs.Span.reset ();
  (* Zero simulation on the lint path: no trace replay, no cache model. *)
  List.iter
    (fun (ev : Obs.Span.event) ->
      if
        List.exists
          (fun banned ->
            String.length ev.Obs.Span.name >= String.length banned
            && String.sub ev.Obs.Span.name 0 (String.length banned) = banned)
          [ "simulate"; "trace-record"; "pipeline" ]
      then Alcotest.failf "lint ran a dynamic stage: %s" ev.Obs.Span.name)
    events;
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "span for lint.%s recorded" pass)
        true
        (List.exists
           (fun (ev : Obs.Span.event) -> ev.Obs.Span.name = "lint." ^ pass)
           events))
    [
      "flow"; "unreachable"; "hot-arc"; "loop-split"; "set-conflict"; "absint";
    ];
  (* Static ranking: the profile-guided placement must statically beat
     the natural order, matching the simulated miss-ratio ordering. *)
  let ids =
    List.map
      (fun row -> List.hd (String.split_on_char ' ' (List.nth row 1)))
      (Report.Table.rows (Experiments.Lint_exp.ranking_table "cmp" results))
  in
  let pos id =
    match List.find_index (String.equal id) ids with
    | Some i -> i
    | None -> Alcotest.failf "strategy %s missing from ranking" id
  in
  Alcotest.(check int) "all five strategies ranked" 5 (List.length ids);
  Alcotest.(check bool) "impact statically beats natural" true
    (pos "impact" < pos "natural")

let suite =
  [
    Alcotest.test_case "dominators: diamond" `Quick dominators_diamond;
    Alcotest.test_case "dominators: dead blocks" `Quick
      dominators_dead_blocks;
    Alcotest.test_case "loop nesting" `Quick loop_nesting;
    Alcotest.test_case "irreducible graph" `Quick irreducible_detected;
    Alcotest.test_case "loops: reference on the fixtures" `Quick
      loops_reference_fixtures;
    Alcotest.test_case "loops: reference on every workload" `Quick
      loops_reference_workloads;
    QCheck_alcotest.to_alcotest
      (prop_loops_reference "generate" (Oracle.Gen.generate ?size:None));
    QCheck_alcotest.to_alcotest
      (prop_loops_reference "generate_deep"
         (Oracle.Gen.generate_deep ?size:None));
    Alcotest.test_case "reachability unified" `Quick reach_unified;
    Alcotest.test_case "dataflow: iteration cap" `Quick dataflow_cap;
    QCheck_alcotest.to_alcotest prop_dom_reach;
    Alcotest.test_case "lint: dead weight is an error" `Quick
      lint_dead_weight;
    Alcotest.test_case "lint: golden cmp/impact" `Quick golden_lint_cmp;
    Alcotest.test_case "lint: ranking, zero simulation" `Quick
      lint_ranking_no_simulation;
  ]
