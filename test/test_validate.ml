(* Negative-path tests for the validation subsystem: malformed inputs
   must yield structured diagnostics (never crashes), corrupted layouts
   and profiles must be caught by the invariant verifier, a deliberately
   broken strategy must be caught and shrunk by the fuzzer, and a
   raising strategy must degrade to the natural layout instead of
   aborting an experiment sweep. *)

open Ir.Ast.Dsl

let has_error ds = Ir.Diag.errors ds <> []

let check_stage name expected (d : Ir.Diag.t) =
  Alcotest.(check string) name expected (Ir.Diag.stage_name d.Ir.Diag.stage)

(* ---------------- malformed programs ---------------- *)

let duplicate_function_names () =
  let p =
    {
      Ir.Ast.globals = [];
      funcs =
        [
          func "dup" [] [ ret (i 1) ];
          func "dup" [] [ ret (i 2) ];
          func "main" [] [ ret (i 0) ];
        ];
      entry = "main";
    }
  in
  match Ir.Lower.program p with
  | _ -> Alcotest.fail "duplicate function names lowered without a diagnostic"
  | exception Ir.Diag.Fail d ->
    check_stage "stage" "structure" d;
    Alcotest.(check (option string)) "function" (Some "dup") d.Ir.Diag.func

let dangling_branch_target () =
  let p = Ir.Lower.program Helpers.caller_prog in
  let fid = p.Ir.Prog.entry in
  let f = p.Ir.Prog.funcs.(fid) in
  let blocks = Array.copy f.Ir.Prog.blocks in
  blocks.(0) <- Ir.Cfg.mk_block blocks.(0).Ir.Cfg.insns (Ir.Cfg.Jump 99);
  let funcs = Array.copy p.Ir.Prog.funcs in
  funcs.(fid) <- { f with Ir.Prog.blocks };
  let bad = Ir.Prog.with_funcs p funcs in
  let ds = Ir.Check.diags bad in
  Alcotest.(check bool) "caught" true (has_error ds);
  let d = List.hd (Ir.Diag.errors ds) in
  check_stage "stage" "structure" d;
  Alcotest.(check (option int)) "block context" (Some 0) d.Ir.Diag.block

let entry_out_of_range () =
  let p = Ir.Lower.program Helpers.caller_prog in
  let bad = { p with Ir.Prog.entry = 99 } in
  let ds = Ir.Check.diags bad in
  Alcotest.(check bool) "caught" true (has_error ds);
  check_stage "stage" "structure" (List.hd (Ir.Diag.errors ds))

(* ---------------- corrupted profile (flow conservation) ------------- *)

let zero_weight_entry_block () =
  let p = Ir.Lower.program Helpers.caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  Alcotest.(check bool) "real profile conserves flow" false
    (has_error (Placement.Validate.flow prof));
  (* Zero out the entry block's weight: inflow (one program entry) no
     longer matches, and neither does its outflow. *)
  prof.Vm.Profile.funcs.(p.Ir.Prog.entry).Vm.Profile.block_counts.(0) <- 0;
  let ds = Placement.Validate.flow prof in
  Alcotest.(check bool) "caught" true (has_error ds);
  let d = List.hd (Ir.Diag.errors ds) in
  check_stage "stage" "profile" d;
  Alcotest.(check (option int)) "block context" (Some 0) d.Ir.Diag.block

(* ---------------- corrupted address map ---------------- *)

let corrupted_address_map () =
  let pipe =
    Placement.Pipeline.run
      (Ir.Lower.program Helpers.caller_prog)
      ~inputs:[ Vm.Io.input [] ]
  in
  let program = pipe.Placement.Pipeline.program in
  let weights fid =
    Placement.Weight.cfg_of_profile pipe.Placement.Pipeline.profile fid
  in
  let m = pipe.Placement.Pipeline.optimized in
  Alcotest.(check bool) "genuine map is clean" false
    (has_error
       (Placement.Validate.map ~strategy:Placement.Strategy.impact ~program
          ~weights m));
  let copy2 a = Array.map Array.copy a in
  (* Overlap: move one block onto another block's address. *)
  let block_addr = copy2 m.Placement.Address_map.block_addr in
  let fid = program.Ir.Prog.entry in
  block_addr.(fid).(1) <- block_addr.(fid).(0);
  let overlapping = { m with Placement.Address_map.block_addr } in
  let ds =
    Placement.Validate.map ~program ~weights overlapping
  in
  Alcotest.(check bool) "overlap caught" true (has_error ds);
  check_stage "stage" "address-map" (List.hd (Ir.Diag.errors ds));
  (* Size corruption: the map lies about a block's instruction count. *)
  let block_words = copy2 m.Placement.Address_map.block_words in
  block_words.(fid).(0) <- block_words.(fid).(0) + 1;
  let resized = { m with Placement.Address_map.block_words } in
  Alcotest.(check bool) "size lie caught" true
    (has_error (Placement.Validate.map ~program ~weights resized));
  (* Claim violation: strategy says entry-first but the entry moved. *)
  let block_addr = copy2 m.Placement.Address_map.block_addr in
  let entry_addr = block_addr.(fid).(0) in
  let swap_fid, swap_l =
    (* find some other block to swap the entry with *)
    let found = ref None in
    Array.iteri
      (fun g addrs ->
        Array.iteri
          (fun l a ->
            if !found = None && a <> entry_addr then found := Some (g, l))
          addrs)
      block_addr;
    Option.get !found
  in
  block_addr.(fid).(0) <- block_addr.(swap_fid).(swap_l);
  block_addr.(swap_fid).(swap_l) <- entry_addr;
  let moved = { m with Placement.Address_map.block_addr } in
  let ds =
    Placement.Validate.map ~strategy:Placement.Strategy.impact ~program
      ~weights moved
  in
  Alcotest.(check bool) "entry-first claim checked" true (has_error ds)

(* ---------------- fuzzer catches an injected bad permutation -------- *)

(* A deliberately broken strategy: the layout repeats the first block
   and drops the last, so it is not a permutation and its address map
   cannot be a bijection of the code bytes. *)
let bad_permutation_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "bad-perm";
    title = "duplicates the entry block (deliberately broken)";
    layout =
      (fun f _ ->
        let nat = Placement.Func_layout.natural f in
        let order = Array.copy nat.Placement.Func_layout.order in
        let n = Array.length order in
        if n > 1 then order.(n - 1) <- order.(0);
        { nat with Placement.Func_layout.order });
  }

let fuzz_catches_bad_permutation () =
  let strategies = [ Placement.Strategy.natural; bad_permutation_strategy ] in
  match
    Fuzz.run ~size:60 ~strategies ~first_seed:42 ~count:1 ()
  with
  | [] -> Alcotest.fail "broken strategy not caught by the fuzzer"
  | _ :: _ :: _ -> Alcotest.fail "one seed, several failures"
  | [ f ] ->
    Alcotest.(check int) "failure carries the seed" 42
      f.Fuzz.seed;
    Alcotest.(check bool) "violations recorded" true
      (has_error f.Fuzz.diags);
    Alcotest.(check bool) "shrunk reproducer still fails" true
      (has_error f.Fuzz.shrunk_diags);
    Alcotest.(check bool) "shrunk is no larger" true
      (List.length f.Fuzz.shrunk.Ir.Ast.funcs
      <= List.length (Oracle.Gen.generate ~size:60 42).Ir.Ast.funcs);
    let report = Fmt.str "%a" Fuzz.report_failure f in
    let contains s sub =
      let len = String.length s and l = String.length sub in
      let rec go i = i + l <= len && (String.sub s i l = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "report names the seed" true
      (contains report "seed 42")

let fuzz_smoke () =
  Alcotest.(check int) "10 seeds, all strategies, no violations" 0
    (List.length (Fuzz.run ~size:60 ~first_seed:1 ~count:10 ()))

(* ---------------- graceful strategy degradation ---------------- *)

let raising_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "explosive";
    title = "always raises (deliberately broken)";
    layout = (fun _ _ -> failwith "boom");
  }

let degradation () =
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let map = Experiments.Context.strategy_map e raising_strategy in
  Alcotest.(check bool) "fell back" true
    (Experiments.Context.fell_back e "explosive");
  Alcotest.(check bool) "natural map substituted" true
    (map == Experiments.Context.natural_map e);
  Alcotest.(check int) "one warning recorded" 1
    (List.length (Experiments.Context.warnings e));
  let d = List.hd (Experiments.Context.warnings e) in
  Alcotest.(check string) "warning severity" "warning"
    (Ir.Diag.severity_name d.Ir.Diag.severity);
  check_stage "warning stage" "strategy" d;
  (* The sweep completes with the substitution marked in the table row
     (memoization means no duplicate warning). *)
  match Experiments.Strategy_exp.compute ~strategies:[ raising_strategy ] ctx with
  | [ row ] ->
    Alcotest.(check string) "row marks the fallback"
      "explosive (fallback: natural)" row.Experiments.Strategy_exp.strategy;
    Alcotest.(check int) "still one warning" 1
      (List.length (Experiments.Context.warnings e))
  | rows ->
    Alcotest.failf "expected 1 row, got %d" (List.length rows)

let suite =
  [
    Alcotest.test_case "duplicate function names" `Quick
      duplicate_function_names;
    Alcotest.test_case "dangling branch target" `Quick dangling_branch_target;
    Alcotest.test_case "entry out of range" `Quick entry_out_of_range;
    Alcotest.test_case "zero-weight entry block" `Quick
      zero_weight_entry_block;
    Alcotest.test_case "corrupted address map" `Quick corrupted_address_map;
    Alcotest.test_case "fuzzer catches bad permutation" `Slow
      fuzz_catches_bad_permutation;
    Alcotest.test_case "fuzz smoke" `Slow fuzz_smoke;
    Alcotest.test_case "strategy degradation" `Slow degradation;
  ]
