(* Shared fixtures for the test suite: small DSL programs and convenience
   runners. *)

open Ir.Ast.Dsl

let run ?(streams = []) ?(args = []) prog =
  Vm.Interp.run (Ir.Lower.program prog) (Vm.Io.input ~args streams)

let ret_of ?streams ?args prog = (run ?streams ?args prog).Vm.Interp.return_value

let out_of ?streams ?args prog =
  Vm.Io.output (run ?streams ?args prog).Vm.Interp.io 0

(* A program with a single main. *)
let main_prog ?(globals = []) ?(funcs = []) body =
  { Ir.Ast.globals; funcs = funcs @ [ func "main" [] body ]; entry = "main" }

(* gcd via repeated remainder: exercises calls and loops. *)
let gcd_func =
  func "gcd" [ "a"; "b" ]
    [
      while_ (v "b" <>% i 0)
        [ decl "t" (v "b"); set "b" (v "a" %% v "b"); set "a" (v "t") ];
      ret (v "a");
    ]

(* A loop fixture used by placement tests.  The CFG itself is the plain
   loop 0 -> 1 <-> {2 -> 4} with exit 1 -> 5; block 3 has no incoming
   CFG edge.  The diamond shape lives entirely in [diamond_weights],
   whose hand-built arcs route a cold path 1 -> 3 -> 4 alongside the hot
   1 -> 2 -> 4 — the placement algorithms consume only those weights, so
   the tests exercise a hot/cold arm split without the CFG having one.
   (For a CFG-level diamond see test_analysis.ml.) *)
let diamond_loop_func : Ir.Prog.func =
  let b insns term = Ir.Cfg.mk_block (Array.of_list insns) term in
  {
    Ir.Prog.name = "diamond";
    nparams = 1;
    nregs = 4;
    blocks =
      [|
        b [ Ir.Insn.Mov (1, Imm 0) ] (Jump 1);
        b [ Ir.Insn.Bin (Lt, 2, Reg 1, Reg 0) ] (Br (Reg 2, 2, 5));
        b
          [ Ir.Insn.Bin (Add, 3, Reg 3, Reg 1) ]
          (Jump 4);
        b [ Ir.Insn.Bin (Sub, 3, Reg 3, Reg 1) ] (Jump 4);
        b [ Ir.Insn.Bin (Add, 1, Reg 1, Imm 1) ] (Jump 1);
        b [] (Ret (Some (Reg 3)));
      |];
  }

(* Hand-built CFG weights from block counts and (src, dst, count) arcs. *)
let cfg_of_lists ~func_weight ~blocks ~arcs : Placement.Weight.cfg_weights =
  let block_tbl = Hashtbl.create 16 in
  List.iter (fun (l, c) -> Hashtbl.replace block_tbl l c) blocks;
  let outs = Hashtbl.create 16 and ins = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, c) ->
      Hashtbl.replace outs src
        ((dst, c) :: (Option.value ~default:[] (Hashtbl.find_opt outs src)));
      Hashtbl.replace ins dst
        ((src, c) :: (Option.value ~default:[] (Hashtbl.find_opt ins dst))))
    arcs;
  {
    Placement.Weight.func_weight;
    block =
      (fun l ->
        match Hashtbl.find_opt block_tbl l with Some c -> c | None -> 0);
    arcs_out =
      (fun l ->
        match Hashtbl.find_opt outs l with Some a -> a | None -> []);
    arcs_in =
      (fun l -> match Hashtbl.find_opt ins l with Some a -> a | None -> []);
  }

(* Hand weights for [diamond_loop_func] where arm 2 dominates: the loop
   ran 100 times, 90 through block 2 and 10 through block 3. *)
let diamond_weights ?(hot = 90) ?(cold = 10) () =
  let n = hot + cold in
  cfg_of_lists ~func_weight:1
    ~blocks:[ (0, 1); (1, n + 1); (2, hot); (3, cold); (4, n); (5, 1) ]
    ~arcs:
      [
        (0, 1, 1);
        (1, 2, hot);
        (1, 3, cold);
        (1, 5, 1);
        (2, 4, hot);
        (3, 4, cold);
        (4, 1, n);
      ]

(* Tiny two-function program for call-related tests. *)
let caller_prog =
  {
    Ir.Ast.globals = [];
    funcs =
      [
        func "twice" [ "x" ] [ ret (v "x" *% i 2) ];
        func "main" []
          [
            decl "acc" (i 0);
            for_
              [ decl "k" (i 0) ]
              (v "k" <% i 10)
              [ incr_ "k" ]
              [ set "acc" (v "acc" +% call "twice" [ v "k" ]) ];
            ret (v "acc");
          ];
      ];
    entry = "main";
  }

(* Deterministic pseudo-random fetch-address generator for cache tests. *)
let random_addresses ~seed ~count ~max_addr =
  let rng = Workloads.Rng.create seed in
  Array.init count (fun _ -> Workloads.Rng.int rng max_addr / 4 * 4)

let func_by_name (p : Ir.Prog.program) name =
  p.Ir.Prog.funcs.(Ir.Prog.func_index p name)

(* Every block of the map occupies a disjoint, contiguous address range. *)
let is_disjoint (t : Placement.Address_map.t) =
  let ranges = ref [] in
  Array.iteri
    (fun fid addrs ->
      Array.iteri
        (fun l addr ->
          ranges :=
            ( addr,
              addr
              + t.Placement.Address_map.block_words.(fid).(l)
                * Ir.Insn.bytes_per_insn )
            :: !ranges)
        addrs)
    t.Placement.Address_map.block_addr;
  let sorted = List.sort compare !ranges in
  let rec check = function
    | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && check rest
    | [ _ ] | [] -> true
  in
  check sorted

let read_lines path =
  In_channel.with_open_bin path @@ fun ic ->
  let rec go acc =
    match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

(* `dune runtest` runs with the test directory as cwd; `dune exec
   test/test_impact.exe` runs from the project root. *)
let vector_path p = if Sys.file_exists p then p else Filename.concat "test" p
