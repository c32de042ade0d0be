(* Execution profiling (paper step 1).

   Accumulates, across any number of runs:
   - the weighted control graph of every function (block and arc counts),
   - the weighted call graph (per-call-site counts and function entry
     counts),
   - the calling-context tree of every call path, from which inlining
     sums the call-site counts of each round's program without running
     it,
   - whole-program dynamic totals for Table 2 / Table 3.

   Every run counts into one shared [Interp.counts]: what each function
   did in each context, and the order in which each (context, event
   slot) pair was first taken.  [of_counts] projects the contexts onto
   their functions and keeps only the tree's shape; the counts outlive
   the profile only where a caller keeps them, as the pipeline does to
   derive the inlined program's profile.  New keys are inserted in
   first-taken order, so every table has the layout (and [Hashtbl.fold]
   order) that bumping a key per executed transfer would give: layout
   ties break on that order. *)

open Ir

type func_profile = {
  block_counts : int array;
  (* arc_counts.(src) maps dst -> count, for intra-function arcs *)
  arc_counts : (int, int) Hashtbl.t array;
}

type t = {
  prog : Prog.program;
  funcs : func_profile array;
  site_counts : (int * Cfg.label * int, int) Hashtbl.t;
      (* (caller fid, block, callee fid) -> dynamic calls *)
  entry_counts : int array; (* per function: number of invocations *)
  contexts : Interp.context; (* calling-context tree, summed over the runs *)
  mutable runs : int;
  mutable dyn_insns : int;
  mutable dyn_blocks : int;
  mutable dyn_calls : int;
  mutable dyn_branches : int;
}

let with_tree (prog : Prog.program) contexts =
  let funcs =
    Array.map
      (fun (f : Prog.func) ->
        let n = Array.length f.blocks in
        {
          block_counts = Array.make n 0;
          arc_counts = Array.init n (fun _ -> Hashtbl.create 4);
        })
      prog.funcs
  in
  {
    prog;
    funcs;
    site_counts = Hashtbl.create 64;
    entry_counts = Array.make (Array.length prog.funcs) 0;
    contexts;
    runs = 0;
    dyn_insns = 0;
    dyn_blocks = 0;
    dyn_calls = 0;
    dyn_branches = 0;
  }

let create prog = with_tree prog (Interp.contexts (Interp.empty prog))

let add tbl key n =
  let cur = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  Hashtbl.replace tbl key (cur + n)

(* The per-function tables and totals of a tree: each run entered the
   root once, and each executed block charged its instruction count and
   made a call or a branch by its terminator. *)
let of_counts counts =
  let prog = Interp.program counts in
  let t = with_tree prog (Interp.contexts counts) in
  Array.iteri
    (fun fid blocks ->
      let f = prog.funcs.(fid) in
      Array.iteri
        (fun l n ->
          let b = f.blocks.(l) in
          t.funcs.(fid).block_counts.(l) <- n;
          t.dyn_blocks <- t.dyn_blocks + n;
          t.dyn_insns <- t.dyn_insns + (n * Cfg.instr_count b);
          match b.term with
          | Cfg.Call _ -> t.dyn_calls <- t.dyn_calls + n
          | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ ->
            t.dyn_branches <- t.dyn_branches + n
          | Cfg.Ret _ -> ())
        blocks)
    (Interp.block_counts counts);
  Interp.iter_arcs counts (fun fid src dst n ->
      add t.funcs.(fid).arc_counts.(src) dst n);
  Interp.iter_calls counts (fun caller block callee n ->
      add t.site_counts (caller, block, callee) n;
      t.entry_counts.(callee) <- t.entry_counts.(callee) + n);
  t.runs <- (Interp.contexts counts).calls;
  t.entry_counts.(prog.entry) <- t.entry_counts.(prog.entry) + t.runs;
  t

let run prog inputs =
  Obs.Span.with_ ~stage:"profile" @@ fun () ->
  let counts = Interp.empty prog in
  List.iter (fun input -> ignore (Interp.run ~counts prog input)) inputs;
  (of_counts counts, counts)

let profile prog inputs = fst (run prog inputs)

let block_weight t fid l = t.funcs.(fid).block_counts.(l)
let func_weight t fid = t.entry_counts.(fid)

let out_arcs t fid src =
  Hashtbl.fold
    (fun dst count acc -> (dst, count) :: acc)
    t.funcs.(fid).arc_counts.(src) []

(* Incoming intra-function arc counts for every block of a function. *)
let in_arcs t fid =
  let fp = t.funcs.(fid) in
  let n = Array.length fp.block_counts in
  let incoming = Array.make n [] in
  Array.iteri
    (fun src tbl ->
      Hashtbl.iter
        (fun dst count -> incoming.(dst) <- (src, count) :: incoming.(dst))
        tbl)
    fp.arc_counts;
  incoming
