(* Natural loops from back edges.

   DFS from the entry classifies retreating edges (target on the DFS
   stack); the dominator tree splits them into proper back edges (target
   dominates source -> a natural loop) and irreducibility witnesses.
   Loop bodies come from the standard reverse flood from the latch,
   stopping at the header; loops sharing a header are merged, as usual.
   Nesting is containment of headers: loop B is inside loop A exactly
   when B's header lies in A's body (and B != A). *)

open Ir

type loop = {
  header : Cfg.label;
  body : Cfg.label list;
  latches : Cfg.label list;
  depth : int;
  parent : int option;
}

type t = {
  loops : loop array;
  depth_of : int array;
  loop_of : int array;
  reducible : bool;
  irreducible_edges : (Cfg.label * Cfg.label) list;
  dom : Dom.t;
}

let of_func (f : Prog.func) : t =
  let blocks = f.Prog.blocks in
  let n = Array.length blocks in
  let preds = Dataflow.cfg_preds blocks in
  let dom = Dom.dominators f in
  (* Retreating edges: DFS with an explicit on-stack mark. *)
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let retreating = ref [] in
  let rec visit u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if color.(v) = 0 then visit v
        else if color.(v) = 1 then retreating := (u, v) :: !retreating)
      (Cfg.successors blocks.(u));
    color.(u) <- 2
  in
  if n > 0 then visit 0;
  let back, irreducible_edges =
    List.partition (fun (src, dst) -> Dom.dominates dom dst src)
      (List.rev !retreating)
  in
  (* Natural loop of a header: flood backwards from every latch until
     the header.  Latches of the same header merge into one loop; blocks
     unreachable from the entry are never part of a body (they are not
     dominated by the header). *)
  let reach = Cfg.reachable blocks in
  let headers = List.sort_uniq compare (List.map snd back) in
  let loops_raw =
    List.map
      (fun header ->
        let latches =
          List.sort compare
            (List.filter_map
               (fun (src, dst) -> if dst = header then Some src else None)
               back)
        in
        let in_body = Array.make n false in
        in_body.(header) <- true;
        let rec flood v =
          if reach.(v) && not in_body.(v) then begin
            in_body.(v) <- true;
            List.iter flood preds.(v)
          end
        in
        List.iter flood latches;
        let body =
          List.filter (fun l -> in_body.(l)) (List.init n Fun.id)
        in
        (header, body, latches))
      headers
  in
  (* Nesting: B inside A iff A contains B's header (strictly different
     loops).  With same-header loops merged, body containment follows. *)
  let nloops = List.length loops_raw in
  let arr = Array.of_list loops_raw in
  let contains a b =
    (* loop a's body contains loop b's header *)
    let _, body_a, _ = arr.(a) and hb, _, _ = arr.(b) in
    a <> b && List.mem hb body_a
  in
  let all = List.init nloops Fun.id in
  let depth_arr =
    Array.init nloops (fun b ->
        1 + List.length (List.filter (fun a -> contains a b) all))
  in
  let parent_arr =
    Array.init nloops (fun b ->
        (* Innermost enclosing loop: the enclosing loop of maximum
           depth. *)
        List.fold_left
          (fun best a ->
            if not (contains a b) then best
            else
              match best with
              | Some cur when depth_arr.(cur) >= depth_arr.(a) -> best
              | _ -> Some a)
          None all)
  in
  let loops =
    Array.init nloops (fun i ->
        let header, body, latches = arr.(i) in
        {
          header;
          body;
          latches;
          depth = depth_arr.(i);
          parent = parent_arr.(i);
        })
  in
  let depth_of = Array.make n 0 in
  let loop_of = Array.make n (-1) in
  Array.iteri
    (fun i loop ->
      List.iter
        (fun l ->
          if loop.depth > depth_of.(l) then begin
            depth_of.(l) <- loop.depth;
            loop_of.(l) <- i
          end)
        loop.body)
    loops;
  {
    loops;
    depth_of;
    loop_of;
    reducible = irreducible_edges = [];
    irreducible_edges;
    dom;
  }
