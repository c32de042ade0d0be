(* Pettis-Hansen style code positioning (PLDI 1990), implemented as a
   comparison algorithm: the best-known follow-on to the paper's
   placement scheme.

   Intra-function ("bottom-up positioning"): every basic block starts as
   a singleton chain; arcs are processed in decreasing weight, merging
   two chains when the arc runs from the tail of one to the head of the
   other.  Chains are then emitted starting with the entry chain,
   followed by the remaining executed chains in decreasing weight;
   never-executed chains sink to the bottom, mirroring the split the
   IMPACT layout produces so the two are directly comparable.

   Global ("closest is best" procedure ordering): functions start as
   singleton groups; undirected call-pair weights are processed in
   decreasing order, concatenating the two groups; the group containing
   the entry function is emitted first. *)

open Ir

(* ---------- intra-function chains ---------- *)

type chain = {
  mutable blocks : Cfg.label list; (* in order, head first *)
  mutable tail : Cfg.label; (* last element of [blocks], kept explicit so
                               arc processing stays O(1) per arc *)
  mutable weight : int;
}

(* Telemetry: "closest is best" group concatenations (global); chain
   merges count in [Func_layout.chains_merged]. *)
let groups_merged =
  Obs.Metrics.counter "layout.groups_merged"
    ~help:"Pettis-Hansen closest-is-best group concatenations"

let layout (f : Prog.func) (w : Weight.cfg_weights) : Func_layout.t =
  let n = Array.length f.blocks in
  if w.func_weight = 0 then Func_layout.layout_unexecuted f
  else begin
    let chain_of =
      Array.init n (fun l -> { blocks = [ l ]; tail = l; weight = w.block l })
    in
    let head c = List.hd c.blocks in
    let tail c = c.tail in
    (* All arcs with nonzero weight, heaviest first; ties deterministic. *)
    let arcs = ref [] in
    for src = 0 to n - 1 do
      List.iter
        (fun (dst, count) ->
          if count > 0 && src <> dst then arcs := (count, src, dst) :: !arcs)
        (w.arcs_out src)
    done;
    let arcs =
      List.sort
        (fun (c1, s1, d1) (c2, s2, d2) ->
          match compare c2 c1 with
          | 0 -> compare (s1, d1) (s2, d2)
          | c -> c)
        !arcs
    in
    List.iter
      (fun (_, src, dst) ->
        let ca = chain_of.(src) and cb = chain_of.(dst) in
        if ca != cb && tail ca = src && head cb = dst && dst <> 0 then begin
          (* merge cb onto ca's tail *)
          ca.blocks <- ca.blocks @ cb.blocks;
          ca.tail <- cb.tail;
          ca.weight <- ca.weight + cb.weight;
          List.iter (fun l -> chain_of.(l) <- ca) cb.blocks;
          Obs.Metrics.incr Func_layout.chains_merged
        end)
      arcs;
    (* Each chain once, in the order of its smallest label. *)
    let chains = Greedy_merge.distinct head (Array.to_list chain_of) in
    let entry_chain = chain_of.(0) in
    let executed, dead =
      List.partition (fun c -> c.weight > 0) chains
    in
    let executed =
      entry_chain
      :: List.sort
           (fun a b -> compare b.weight a.weight)
           (List.filter (fun c -> c != entry_chain) executed)
    in
    let labels chains = List.concat_map (fun c -> c.blocks) chains in
    Func_layout.make f ~active:(labels executed) ~dead:(labels dead)
  end

(* ---------- global "closest is best" ordering ---------- *)

let global nfuncs ~entry (w : Weight.call_weights) : Global_layout.t =
  let edges =
    Hashtbl.fold
      (fun (a, b) weight acc -> (weight, a, b) :: acc)
      (Weight.call_pairs nfuncs w) []
  in
  let edges =
    List.sort
      (fun (w1, a1, b1) (w2, a2, b2) ->
        match compare w2 w1 with
        | 0 -> compare (a1, b1) (a2, b2)
        | c -> c)
      edges
  in
  let group_of = Array.init nfuncs (fun fid -> ref [ fid ]) in
  List.iter
    (fun (_, a, b) ->
      let ga = group_of.(a) and gb = group_of.(b) in
      if ga != gb then begin
        ga := !ga @ !gb;
        List.iter (fun fid -> group_of.(fid) <- ga) !gb;
        Obs.Metrics.incr groups_merged
      end)
    edges;
  (* Emit the entry's group first, then remaining groups by total entry
     weight, heaviest first. *)
  let groups =
    Greedy_merge.distinct (fun gr -> List.hd !gr) (Array.to_list group_of)
  in
  let entry_group = group_of.(entry) in
  let rest = List.filter (fun gr -> gr != entry_group) groups in
  let group_weight gr =
    List.fold_left (fun acc fid -> acc + w.entries fid) 0 !gr
  in
  let rest =
    List.sort (fun a b -> compare (group_weight b) (group_weight a)) rest
  in
  let order =
    Array.of_list (List.concat_map (fun gr -> !gr) (entry_group :: rest))
  in
  { Global_layout.order }
