(* Weighted-graph views consumed by the placement algorithms.

   The algorithms are written against this small interface rather than
   against [Vm.Profile] directly, so tests can drive them with hand-built
   weights and alternative profilers can be plugged in. *)

open Ir

(* Weighted control graph of one function. *)
type cfg_weights = {
  func_weight : int; (* times the function was entered *)
  block : Cfg.label -> int;
  arcs_out : Cfg.label -> (Cfg.label * int) list;
  arcs_in : Cfg.label -> (Cfg.label * int) list;
}

(* Weighted call graph of a program. *)
type call_weights = {
  pair : int -> int -> int; (* caller fid -> callee fid -> total calls *)
  callees : int -> int list; (* statically called functions, deduplicated *)
  entries : int -> int; (* times the function was entered *)
  size : int -> int; (* function byte size; layout algorithms that cap or
                        score by distance (e.g. call-chain clustering)
                        consult it *)
}

let cfg_of_profile (profile : Vm.Profile.t) fid =
  let incoming = Vm.Profile.in_arcs profile fid in
  {
    func_weight = Vm.Profile.func_weight profile fid;
    block = Vm.Profile.block_weight profile fid;
    arcs_out = Vm.Profile.out_arcs profile fid;
    arcs_in = (fun l -> incoming.(l));
  }

let call_of_profile (profile : Vm.Profile.t) =
  let prog = profile.Vm.Profile.prog in
  let graph = Callgraph.build prog in
  let pair_counts = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (caller, _block, callee) count ->
      (* weight(X, X) = 0, per the paper's GlobalLayout algorithm *)
      if caller <> callee then begin
        let key = (caller, callee) in
        let cur =
          match Hashtbl.find_opt pair_counts key with
          | Some c -> c
          | None -> 0
        in
        Hashtbl.replace pair_counts key (cur + count)
      end)
    profile.Vm.Profile.site_counts;
  {
    pair =
      (fun caller callee ->
        match Hashtbl.find_opt pair_counts (caller, callee) with
        | Some c -> c
        | None -> 0);
    callees = (fun fid -> graph.Callgraph.callees.(fid));
    entries = (fun fid -> Vm.Profile.func_weight profile fid);
    size = (fun fid -> Prog.func_byte_size prog.Prog.funcs.(fid));
  }

(* Undirected call weight per function pair; the insertion order below
   is part of C3's result (see the .mli). *)
let call_pairs nfuncs (w : call_weights) =
  let tbl = Hashtbl.create 64 in
  for caller = 0 to nfuncs - 1 do
    List.iter
      (fun callee ->
        let weight = w.pair caller callee in
        if caller <> callee && weight > 0 then begin
          let key = (min caller callee, max caller callee) in
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (cur + weight)
        end)
      (w.callees caller)
  done;
  tbl
