(* Execution profiling (paper step 1).

   Accumulates, across any number of runs:
   - the weighted control graph of every function (block and arc counts),
   - the weighted call graph (per-call-site counts and function entry
     counts),
   - the calling-context tree of every call path, from which inlining
     sums the call-site counts of each round's program without running
     it,
   - whole-program dynamic totals for Table 2 / Table 3.

   Each run counts into the interpreter's dense per-run arrays; [run]
   then folds them into the hash tables below.  New keys are inserted in
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

let create (prog : Prog.program) =
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
    contexts = Interp.root_context prog;
    runs = 0;
    dyn_insns = 0;
    dyn_blocks = 0;
    dyn_calls = 0;
    dyn_branches = 0;
  }

let add tbl key n =
  let cur = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  Hashtbl.replace tbl key (cur + n)

(* Add a run's calling-context tree into the profile's, node by node. *)
let rec merge (into : Interp.context) (from : Interp.context) =
  into.calls <- into.calls + from.calls;
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some (c : Interp.context) ->
        let sub =
          match into.callees.(k) with
          | Some sub -> sub
          | None ->
            let sub =
              {
                c with
                calls = 0;
                callees = Array.make (Array.length c.callees) None;
              }
            in
            into.callees.(k) <- Some sub;
            sub
        in
        merge sub c)
    from.callees

let run t input =
  t.entry_counts.(t.prog.entry) <- t.entry_counts.(t.prog.entry) + 1;
  let r = Interp.run t.prog input in
  let c = r.counts in
  Array.iteri
    (fun fid fp ->
      Array.iteri
        (fun l n -> fp.block_counts.(l) <- n + Interp.block_count c fid l)
        fp.block_counts)
    t.funcs;
  Interp.iter_arcs c (fun fid src dst n ->
      add t.funcs.(fid).arc_counts.(src) dst n);
  Interp.iter_calls c (fun caller block callee n ->
      add t.site_counts (caller, block, callee) n;
      t.entry_counts.(callee) <- t.entry_counts.(callee) + n);
  merge t.contexts (Interp.contexts c);
  t.runs <- t.runs + 1;
  t.dyn_insns <- t.dyn_insns + r.dyn_insns;
  t.dyn_blocks <- t.dyn_blocks + r.dyn_blocks;
  t.dyn_calls <- t.dyn_calls + r.dyn_calls;
  t.dyn_branches <- t.dyn_branches + r.dyn_branches;
  r

let profile prog inputs =
  Obs.Span.with_ ~stage:"profile" @@ fun () ->
  let t = create prog in
  List.iter (fun input -> ignore (run t input)) inputs;
  t

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
