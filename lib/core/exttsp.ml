(* Extended-TSP basic-block reordering (Newell & Pupyrev, "Improved
   Basic Block Reordering", 2020) as a drop-in function-body layout
   strategy.

   The classic TSP formulation of block placement maximizes the total
   weight of fall-through branches.  Ext-TSP extends the objective with
   partial credit for short jumps, reflecting that near branches still
   hit the same or an adjacent cache line:

     score(arc s->t, weight w) =
       w                              if t starts where s ends (fall-through)
       0.1 * w * (1 - d / 1024)      if t is a forward jump d < 1024 bytes away
       0.1 * w * (1 - d / 640)       if t is a backward jump d < 640 bytes away
       0                              otherwise

   with d the byte gap between the end of s and the start of t.

   The optimizer is the paper's greedy chain merger: every block starts
   as a singleton chain, and [Greedy_merge.run] — the loop C3 shares —
   repeatedly applies the merge with the highest score gain until no
   merge improves the objective.  This module supplies only a pair's
   best arrangement and the chain update.  Besides plain
   concatenation X.Y, a merge may split the first chain at any point
   into X1,X2 and interleave the second — the paper's three splitting
   moves X1.Y.X2, Y.X2.X1 and X2.X1.Y — which lets a previously merged
   chain be broken when a better neighbour appears.  Chains longer than
   [split_threshold] are only concatenated, bounding the search.

   The function entry block must stay first, so any merge that would
   displace it from the head of its chain is rejected.  Never-executed
   blocks keep singleton zero-weight chains and sink to the bottom,
   forming the non-executed region exactly like the IMPACT and
   Pettis-Hansen layouts, so the three are directly comparable. *)

open Ir

let fallthrough_gain = 1.0
let jump_gain = 0.1
let forward_distance = 1024.
let backward_distance = 640.
let split_threshold = 64

type chain = {
  cid : int; (* stable id for deterministic tie-breaking *)
  mutable blocks : Cfg.label array; (* layout order, head first *)
  mutable weight : int; (* total block weight *)
  mutable bytes : int;
}

let layout (f : Prog.func) (w : Weight.cfg_weights) : Func_layout.t =
  let n = Array.length f.blocks in
  if w.func_weight = 0 then Func_layout.layout_unexecuted f
  else begin
    let size = Array.init n (fun l -> Cfg.byte_size f.blocks.(l)) in
    (* Outgoing weighted arcs per block (self-arcs score 0 — a block
       cannot fall through to itself). *)
    let arcs_out =
      Array.init n (fun src ->
        List.filter (fun (dst, c) -> c > 0 && dst <> src) (w.arcs_out src))
    in
    let executed l = w.block l > 0 || l = 0 in
    let chain_of =
      Array.init n (fun l ->
        { cid = l; blocks = [| l |]; weight = w.block l; bytes = size.(l) })
    in
    (* Ext-TSP score of one candidate block sequence, counting only arcs
       internal to the sequence.  [addr_of] is scratch (-1 = absent). *)
    let addr_of = Array.make n (-1) in
    let score_seq (seq : Cfg.label array) =
      let cursor = ref 0 in
      Array.iter
        (fun l ->
          addr_of.(l) <- !cursor;
          cursor := !cursor + size.(l))
        seq;
      let total = ref 0.0 in
      Array.iter
        (fun src ->
          let src_end = addr_of.(src) + size.(src) in
          List.iter
            (fun (dst, c) ->
              let d_addr = addr_of.(dst) in
              if d_addr >= 0 then
                let wf = float_of_int c in
                if d_addr = src_end then total := !total +. (fallthrough_gain *. wf)
                else if d_addr > src_end then begin
                  let d = float_of_int (d_addr - src_end) in
                  if d < forward_distance then
                    total := !total +. (jump_gain *. wf *. (1. -. (d /. forward_distance)))
                end
                else begin
                  let d = float_of_int (src_end - d_addr) in
                  if d < backward_distance then
                    total := !total +. (jump_gain *. wf *. (1. -. (d /. backward_distance)))
                end)
            arcs_out.(src))
        seq;
      Array.iter (fun l -> addr_of.(l) <- -1) seq;
      !total
    in
    let chain_score = Hashtbl.create 16 in
    let score_of c =
      match Hashtbl.find_opt chain_score c.cid with
      | Some s -> s
      | None ->
        let s = score_seq c.blocks in
        Hashtbl.add chain_score c.cid s;
        s
    in
    (* Candidate merged sequences for chains [x] and [y]: plain
       concatenation always; the three splitting moves when [x] is short
       enough.  Any arrangement that buries the entry block is dropped. *)
    let keeps_entry_first (seq : Cfg.label array) =
      let has_entry = Array.exists (fun l -> l = 0) seq in
      (not has_entry) || seq.(0) = 0
    in
    let arrangements x y =
      let xb = x.blocks and yb = y.blocks in
      let cat parts = Array.concat parts in
      let base = [ cat [ xb; yb ] ] in
      let split =
        if Array.length xb > split_threshold then []
        else begin
          let acc = ref [] in
          for i = Array.length xb - 1 downto 1 do
            let x1 = Array.sub xb 0 i in
            let x2 = Array.sub xb i (Array.length xb - i) in
            acc :=
              cat [ x1; yb; x2 ] :: cat [ yb; x2; x1 ] :: cat [ x2; x1; yb ]
              :: !acc
          done;
          !acc
        end
      in
      List.filter keeps_entry_first (base @ split)
    in
    (* Chains connected by at least one arc are the candidate pairs; a
       pair's merge is its best arrangement. *)
    Greedy_merge.run ~counter:Func_layout.chains_merged
      ~pairs:(fun connect ->
        Array.iteri
          (fun src arcs ->
            List.iter
              (fun (dst, _) ->
                if executed src && executed dst then connect src dst)
              arcs)
          arcs_out)
      ~gain:(fun a b ->
        let ca = chain_of.(a) and cb = chain_of.(b) in
        let self = score_of ca +. score_of cb in
        Greedy_merge.best
          (fun seq -> score_seq seq -. self)
          (arrangements ca cb @ arrangements cb ca))
      ~merge:(fun a b seq ->
        let ca = chain_of.(a) and cb = chain_of.(b) in
        (* Keep [ca] as the surviving chain; retire [cb]. *)
        ca.blocks <- seq;
        ca.weight <- ca.weight + cb.weight;
        ca.bytes <- ca.bytes + cb.bytes;
        Array.iter (fun l -> chain_of.(l) <- ca) cb.blocks;
        Hashtbl.remove chain_score a;
        Hashtbl.remove chain_score b);
    (* Emit: entry chain first, remaining executed chains by decreasing
       density (score credit per byte is what the objective rewards),
       never-executed blocks last in label order. *)
    let density c = float_of_int c.weight /. float_of_int (max 1 c.bytes) in
    let chains =
      Greedy_merge.by_density
        ~id:(fun c -> c.cid)
        ~density ~first:chain_of.(0)
        (List.filteri (fun l _ -> executed l) (Array.to_list chain_of))
    in
    Func_layout.make f
      ~active:(List.concat_map (fun c -> Array.to_list c.blocks) chains)
      ~dead:(List.filter (fun l -> not (executed l)) (List.init n Fun.id))
  end
