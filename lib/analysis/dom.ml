(* Cooper–Harvey–Kennedy dominators: number the graph in reverse
   postorder, then iterate "idom of v = intersection of its processed
   predecessors" to a fixpoint, where the intersection walks both
   candidates up the partial tree by RPO number.  Simple, allocation
   free after setup, and fast on CFG-sized graphs (the paper it comes
   from, "A Simple, Fast Dominance Algorithm", beats Lengauer-Tarjan up
   to tens of thousands of nodes). *)

open Ir

type t = { root : int; idom : int array; rpo : int array }

let dominators (f : Prog.func) : t =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let preds = Dataflow.cfg_preds blocks in
  let root = 0 in
  let order, nreached =
    Dataflow.reverse_postorder n
      ~succs:(fun l -> Cfg.successors blocks.(l))
      ~roots:[ root ]
  in
  (* The entry's walk fills the last [nreached] slots of [order]. *)
  let reached = Array.sub order (n - nreached) nreached in
  let rpo = Array.make n (-1) in
  Array.iteri (fun k v -> rpo.(v) <- k) reached;
  let idom = Array.make n (-1) in
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
              None preds.(v)
          in
          match new_idom with
          | Some d when idom.(v) <> d ->
            idom.(v) <- d;
            changed := true
          | _ -> ()
        end)
      reached
  done;
  { root; idom; rpo }

let dominates t a b =
  if t.idom.(b) < 0 || t.idom.(a) < 0 then false
  else begin
    let rec walk v = v = a || (v <> t.root && walk t.idom.(v)) in
    walk b
  end
