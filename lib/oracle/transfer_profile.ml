(* Per-transfer profiler, the oracle of [Vm.Profile]'s dense counters.  Every executed block, arc
   and call bumps its hash-table key as it happens, so key insertion
   order is first-taken order by construction.

   Transfers are recovered from the interpreter's block stream alone: the
   block after a jump/branch/switch block is its arc target, the block
   after a call block is the callee's entry, and the block after a return
   closes the arc from the matching call block (a shadow call stack) to
   its continuation. *)

open Ir

let bump tbl key =
  let cur = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  Hashtbl.replace tbl key (cur + 1)

let run (t : Vm.Profile.t) input =
  let prog = t.prog in
  t.entry_counts.(prog.entry) <- t.entry_counts.(prog.entry) + 1;
  let prev = ref None in
  let calls = ref [] in
  let sink fid l =
    let fp = t.funcs.(fid) in
    fp.block_counts.(l) <- fp.block_counts.(l) + 1;
    (match !prev with
    | None -> ()
    | Some (pfid, pl) -> (
      match prog.funcs.(pfid).blocks.(pl).Cfg.term with
      | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ ->
        bump t.funcs.(pfid).arc_counts.(pl) l
      | Cfg.Call _ -> calls := (pfid, pl) :: !calls
      | Cfg.Ret _ -> (
        match !calls with
        | (cfid, cl) :: rest ->
          calls := rest;
          bump t.funcs.(cfid).arc_counts.(cl) l
        | [] -> assert false)));
    (match prog.funcs.(fid).blocks.(l).Cfg.term with
    | Cfg.Call { callee; _ } ->
      let callee = Prog.func_index prog callee in
      bump t.site_counts (fid, l, callee);
      t.entry_counts.(callee) <- t.entry_counts.(callee) + 1
    | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ -> ());
    prev := Some (fid, l)
  in
  let r = Vm.Interp.run ~block_sink:sink prog input in
  t.runs <- t.runs + 1;
  t.dyn_insns <- t.dyn_insns + r.dyn_insns;
  t.dyn_blocks <- t.dyn_blocks + r.dyn_blocks;
  t.dyn_calls <- t.dyn_calls + r.dyn_calls;
  t.dyn_branches <- t.dyn_branches + r.dyn_branches

let profile prog inputs =
  let t = Vm.Profile.create prog in
  List.iter (run t) inputs;
  t

(* Everything a profile exposes, with every hash table read in its
   [Hashtbl.fold] order: equal views mean equal counts and equal
   iteration order for every consumer. *)
type view = {
  blocks : int array list;
  entries : int array;
  totals : int list;
  out_arcs : (Cfg.label * int) list list list;
  in_arcs : (Cfg.label * int) list array list;
  sites : ((int * Cfg.label * int) * int) list;
}

let view (p : Vm.Profile.t) =
  let fids = List.init (Array.length p.prog.funcs) Fun.id in
  {
    blocks =
      List.map (fun fid -> p.funcs.(fid).Vm.Profile.block_counts) fids;
    entries = p.entry_counts;
    totals =
      [ p.runs; p.dyn_insns; p.dyn_blocks; p.dyn_calls; p.dyn_branches ];
    out_arcs =
      List.map
        (fun fid ->
          List.init
            (Array.length p.prog.funcs.(fid).blocks)
            (Vm.Profile.out_arcs p fid))
        fids;
    in_arcs = List.map (Vm.Profile.in_arcs p) fids;
    sites = Hashtbl.fold (fun k c acc -> (k, c) :: acc) p.site_counts [];
  }

let same_tables ~got ~want =
  let got = view got and want = view want in
  if got.blocks <> want.blocks then Error "block counts"
  else if got.entries <> want.entries then Error "entry counts"
  else if got.totals <> want.totals then Error "runs and dyn_* totals"
  else if got.out_arcs <> want.out_arcs then Error "out_arcs"
  else if got.in_arcs <> want.in_arcs then Error "in_arcs"
  else if got.sites <> want.sites then Error "site_counts fold order"
  else Ok ()

(* The dense-counter profile must equal the per-transfer oracle in every
   count and in every hash table's fold order. *)
let same_as_oracle prog inputs =
  same_tables ~got:(Vm.Profile.profile prog inputs) ~want:(profile prog inputs)
