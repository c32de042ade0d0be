(* Cooper–Harvey–Kennedy dominators: number the graph in reverse
   postorder, then iterate "idom of v = intersection of its processed
   predecessors" to a fixpoint, where the intersection walks both
   candidates up the partial tree by RPO number.  Simple, allocation
   free after setup, and fast on CFG-sized graphs (the paper it comes
   from, "A Simple, Fast Dominance Algorithm", beats Lengauer-Tarjan up
   to tens of thousands of nodes). *)

open Ir

type t = { root : int; idom : int array }

(* Generic core over an explicit graph. *)
let compute ~nnodes ~root ~succs ~preds =
  let rpo = Array.make nnodes (-1) in
  let order = Array.make nnodes (-1) in
  (* order: nodes in reverse postorder *)
  let visited = Array.make nnodes false in
  let next = ref nnodes in
  (* Iterative DFS computing postorder, then reversed by filling [order]
     from the back. *)
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter visit (succs v);
      decr next;
      order.(!next) <- v
    end
  in
  visit root;
  let first = !next in
  (* Compact the visited prefix and number it. *)
  let reached = Array.sub order first (nnodes - first) in
  Array.iteri (fun k v -> rpo.(v) <- k) reached;
  let idom = Array.make nnodes (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if rpo.(a) > rpo.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> root then begin
          let new_idom =
            List.fold_left
              (fun acc p ->
                if rpo.(p) < 0 || idom.(p) < 0 then acc
                else match acc with
                  | None -> Some p
                  | Some a -> Some (intersect a p))
              None (preds v)
          in
          match new_idom with
          | Some d when idom.(v) <> d ->
            idom.(v) <- d;
            changed := true
          | _ -> ()
        end)
      reached
  done;
  { root; idom }

let dominators (f : Prog.func) : t =
  let blocks = f.Prog.blocks in
  let preds = Dataflow.cfg_preds blocks in
  compute ~nnodes:(Array.length blocks) ~root:0
    ~succs:(fun l -> Cfg.successors blocks.(l))
    ~preds:(fun l -> preds.(l))

let dominates t a b =
  if t.idom.(b) < 0 || t.idom.(a) < 0 then false
  else begin
    let rec walk v = v = a || (v <> t.root && walk t.idom.(v)) in
    walk b
  end
