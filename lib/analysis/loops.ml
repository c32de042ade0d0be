(* Natural loops from back edges.

   The dominator tree's reverse-postorder numbering classifies the
   retreating edges: in a depth-first walk, an edge u -> v whose target
   is still on the stack is exactly one with rpo v <= rpo u (tree and
   forward edges go up in the numbering, cross edges to an earlier
   subtree also go up).  Dominance splits them into proper back edges
   (target dominates source -> a natural loop) and edges that make the
   function irreducible.  Loop bodies come from the standard reverse
   flood from the latches, stopping at the header; loops sharing a
   header are merged, as usual.  Nesting is containment of headers:
   loop B is inside loop A exactly when B's header lies in A's body (and
   B != A).  Headers and bodies are sets, so the order in which edges
   are found is moot. *)

open Ir

type loop = { header : Cfg.label; body : Cfg.label list; depth : int }
type t = { loops : loop array; reducible : bool; dom : Dom.t }

let of_func (f : Prog.func) : t =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let preds = Dataflow.cfg_preds blocks in
  let dom = Dom.dominators f in
  let rpo = dom.Dom.rpo in
  (* Latches per header; blocks the entry cannot reach have no number
     and are never in a loop. *)
  let latches = Array.make n [] and reducible = ref true in
  Array.iteri
    (fun u b ->
      if rpo.(u) >= 0 then
        List.iter
          (fun v ->
            if rpo.(v) <= rpo.(u) then
              if Dom.dominates dom v u then latches.(v) <- u :: latches.(v)
              else reducible := false)
          (Cfg.successors b))
    blocks;
  (* Natural loop of a header: flood backwards from every latch until
     the header. *)
  let loops_raw =
    List.filter_map
      (fun header ->
        if latches.(header) = [] then None
        else begin
          let in_body = Array.make n false in
          in_body.(header) <- true;
          let rec flood v =
            if rpo.(v) >= 0 && not in_body.(v) then begin
              in_body.(v) <- true;
              List.iter flood preds.(v)
            end
          in
          List.iter flood latches.(header);
          Some (header, List.filter (fun l -> in_body.(l)) (List.init n Fun.id))
        end)
      (List.init n Fun.id)
  in
  (* B inside A iff A's body contains B's header (strictly different
     loops); with same-header loops merged, body containment follows. *)
  let loops =
    List.map
      (fun (header, body) ->
        let outer =
          List.filter
            (fun (h, b) -> h <> header && List.mem header b)
            loops_raw
        in
        { header; body; depth = 1 + List.length outer })
      loops_raw
  in
  { loops = Array.of_list loops; reducible = !reducible; dom }
