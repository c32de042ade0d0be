(* Profiling tests: block/arc/call-site weights and flow-conservation
   invariants of the weighted control graph. *)

open Helpers

let accumulation () =
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input []; Vm.Io.input [] ] in
  Alcotest.(check int) "runs" 2 prof.Vm.Profile.runs;
  Alcotest.(check int) "calls accumulate" 20 prof.Vm.Profile.dyn_calls;
  let main_fid = p.Ir.Prog.entry in
  Alcotest.(check int) "entry executed twice" 2
    (Vm.Profile.block_weight prof main_fid 0);
  let twice_fid = Ir.Prog.func_index p "twice" in
  Alcotest.(check int) "callee entered 20 times" 20
    (Vm.Profile.func_weight prof twice_fid);
  Alcotest.(check int) "site weight" 20
    (Hashtbl.fold
       (fun (caller, _, _) c acc -> if caller = main_fid then acc + c else acc)
       prof.Vm.Profile.site_counts 0)

(* Flow conservation: for every executed block with outgoing arcs, the sum
   of outgoing arc weights equals the number of times control left the
   block, i.e. its execution count (returns/exits excepted). *)
let flow_conservation () =
  let b = Workloads.Registry.find "wc" in
  let p = Workloads.Bench.program b in
  let prof =
    Vm.Profile.profile p [ Vm.Io.input [ "hello world\nthe end\n" ] ]
  in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      Array.iteri
        (fun l block ->
          let weight = Vm.Profile.block_weight prof fid l in
          let out =
            List.fold_left
              (fun acc (_, c) -> acc + c)
              0
              (Vm.Profile.out_arcs prof fid l)
          in
          match block.Ir.Cfg.term with
          | Ir.Cfg.Ret _ -> Alcotest.(check int) "ret has no out arcs" 0 out
          | Ir.Cfg.Jump _ | Ir.Cfg.Br _ | Ir.Cfg.Switch _ | Ir.Cfg.Call _ ->
            (* For calls the continuation arc fires on return, so out =
               weight as long as every call returned (it did). *)
            if out <> weight then
              Alcotest.failf "block %d/%d: weight %d but out arcs %d" fid l
                weight out)
        f.Ir.Prog.blocks)
    p.Ir.Prog.funcs

(* in_arcs must be the transpose of out_arcs. *)
let transpose () =
  let b = Workloads.Registry.find "grep" in
  let p = Workloads.Bench.program b in
  let prof =
    Vm.Profile.profile p
      [ Vm.Io.input [ "abc def\nthe quick fox\n"; "e f\n" ] ]
  in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      let incoming = Vm.Profile.in_arcs prof fid in
      let n = Array.length f.Ir.Prog.blocks in
      let from_out = Array.make n 0 in
      Array.iteri
        (fun src _ ->
          List.iter
            (fun (dst, c) -> from_out.(dst) <- from_out.(dst) + c)
            (Vm.Profile.out_arcs prof fid src))
        f.Ir.Prog.blocks;
      Array.iteri
        (fun dst arcs ->
          let total = List.fold_left (fun acc (_, c) -> acc + c) 0 arcs in
          Alcotest.(check int)
            (Printf.sprintf "in/out transpose %d/%d" fid dst)
            from_out.(dst) total)
        incoming)
    p.Ir.Prog.funcs

(* Block weight = sum of incoming arcs (+1 run for the entry of the entry
   function; + entries for callee entry blocks). *)
let entry_weights () =
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  Array.iteri
    (fun fid (f : Ir.Prog.func) ->
      let incoming = Vm.Profile.in_arcs prof fid in
      Array.iteri
        (fun l _ ->
          let w = Vm.Profile.block_weight prof fid l in
          let inc = List.fold_left (fun acc (_, c) -> acc + c) 0 incoming.(l) in
          let expected =
            if l = 0 then inc + Vm.Profile.func_weight prof fid else inc
          in
          Alcotest.(check int)
            (Printf.sprintf "weight matches arcs %d/%d" fid l)
            expected w)
        f.Ir.Prog.blocks)
    p.Ir.Prog.funcs

(* The dense-counter profile must equal the per-transfer oracle in every
   count and in every hash table's fold order. *)
let same_as_oracle name prog inputs =
  match Oracle.Transfer_profile.same_as_oracle prog inputs with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: %s differ" name what

(* Slots that share a target — [Br] with [t = f], a [Switch] with
   repeated targets — merge into one key at the first-taken position,
   and the first-taken switch case depends on the input. *)
let merged_slots_prog =
  let open Ir.Insn in
  let b insns term = Ir.Cfg.mk_block (Array.of_list insns) term in
  let call ret_to =
    Ir.Cfg.Call { callee = "helper"; args = [ Reg 0 ]; dst = Some 2; ret_to }
  in
  let helper =
    {
      Ir.Prog.name = "helper";
      nparams = 1;
      nregs = 2;
      blocks =
        [|
          b [ Bin (Mul, 1, Reg 0, Imm 2) ] (Br (Reg 1, 1, 1));
          b [] (Ret (Some (Reg 1)));
        |];
    }
  in
  let main =
    {
      Ir.Prog.name = "main";
      nparams = 0;
      nregs = 5;
      blocks =
        [|
          b
            [
              Mov (0, Imm 0);
              Intrin (Arg, Some 1, [ Imm 0 ]);
              Intrin (Arg, Some 4, [ Imm 1 ]);
            ]
            (Jump 1);
          b [ Bin (Lt, 2, Reg 0, Reg 1) ] (Br (Reg 2, 2, 7));
          b
            [ Bin (Add, 2, Reg 0, Reg 4); Bin (Rem, 2, Reg 2, Imm 5) ]
            (Switch (Reg 2, [| (0, 4); (1, 3); (2, 4); (3, 3) |], 5));
          b [ Bin (Add, 3, Reg 3, Reg 0) ] (Br (Reg 2, 6, 6));
          b [] (call 6);
          b [] (call 6);
          b [ Bin (Add, 0, Reg 0, Imm 1) ] (Jump 1);
          b [] (Ret (Some (Reg 3)));
        |];
    }
  in
  Ir.Prog.make ~entry:"main" [ helper; main ]

let oracle_merged_slots () =
  let p = merged_slots_prog in
  Ir.Check.program p;
  let inputs =
    List.map
      (fun args -> Vm.Io.input ~args [])
      [ [ 20; 3 ]; [ 7; 1 ]; [ 0; 0 ]; [ 9; 4 ] ]
  in
  same_as_oracle "merged slots" p inputs;
  (* Both Br arcs of helper's entry land on one key. *)
  let prof = Vm.Profile.profile p inputs in
  let helper = Ir.Prog.func_index p "helper" in
  Alcotest.(check (list (pair int int)))
    "Br t = f is one arc" [ (1, Vm.Profile.block_weight prof helper 0) ]
    (Vm.Profile.out_arcs prof helper 0)

let prop_oracle =
  QCheck.Test.make ~name:"profile equals the per-transfer oracle" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Ir.Lower.program (Oracle.Gen.generate seed) in
      same_as_oracle (Printf.sprintf "seed %d" seed) p
        [ Vm.Io.input []; Vm.Io.input ~args:[ 3 ] [ "input" ] ];
      true)

let oracle_workloads () =
  List.iter
    (fun b ->
      same_as_oracle b.Workloads.Bench.name (Workloads.Bench.program b)
        (Workloads.Bench.profile_inputs b))
    Workloads.Registry.all

let suite =
  [
    Alcotest.test_case "accumulation across runs" `Quick accumulation;
    Alcotest.test_case "flow conservation" `Quick flow_conservation;
    Alcotest.test_case "in_arcs transposes out_arcs" `Quick transpose;
    Alcotest.test_case "block weight = incoming + entries" `Quick entry_weights;
    Alcotest.test_case "oracle: merged slots" `Quick oracle_merged_slots;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "oracle: every workload" `Slow oracle_workloads;
  ]
