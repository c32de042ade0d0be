(* Iterative forward dataflow over an explicit graph, with the meet
   taken over graph predecessors and the transfer supplied by the
   caller.  Pending nodes are visited in sweeps over the reverse
   postorder of the graph (Kam & Ullman, JACM 1976), so within a sweep a
   node comes after its forward predecessors.  Values are mutated in
   place ([assign]/[join_into]/[transfer] write into [dst]), so a
   lattice instance over byte arrays allocates exactly 2n + 2 states for
   the whole solve.  No join identity is required: the meet assigns the
   first contributor and joins the rest.

   Every value starts at [make ()], the top of the pointwise order the
   cache domains use, and every transfer and join is monotone in it, so
   each iterate stays above the greatest fixpoint and the solve stops
   there, whatever the visit order: only the pop count depends on it. *)

open Ir

let iterations_total =
  Obs.Metrics.counter "analysis.dataflow_iterations"
    ~help:"worklist pops across all dataflow solves"

let cap_warning ~max_iters ~iterations =
  Diag.make ~severity:Warning ~stage:Lint
    "dataflow: iteration cap %d hit after %d worklist pops; solution is a \
     pre-fixpoint and must not be trusted"
    max_iters iterations

type 'a lattice = {
  make : unit -> 'a;
  assign : dst:'a -> 'a -> unit;
  join_into : dst:'a -> 'a -> unit;
  equal : 'a -> 'a -> bool;
}

type 'a value_problem = {
  v_nnodes : int;
  v_succs : int -> int list;
  v_preds : int -> int list;
  v_boundary : int list;
  v_boundary_value : 'a;
  v_lattice : 'a lattice;
  v_transfer : int -> src:'a -> dst:'a -> unit;
}

type 'a value_solution = {
  v_in : 'a array;
  v_out : 'a array;
  v_iterations : int;
  v_capped : bool;
  v_warnings : Diag.t list;
}

(* Reverse postorder of every node: a depth-first walk from each
   root, then from each node still unvisited in index order, so the
   nodes no root reaches are ordered too.  Postorder fills [order] from
   the back, so the roots' walk ends up in its last [reached] slots. *)
let reverse_postorder n ~succs ~roots =
  let order = Array.make n 0 and next = ref n in
  let seen = Bytes.make n '\000' in
  let rec walk v =
    if Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      List.iter walk (succs v);
      decr next;
      order.(!next) <- v
    end
  in
  List.iter walk roots;
  let reached = n - !next in
  for v = 0 to n - 1 do
    walk v
  done;
  (order, reached)

let solve_values ?max_iters (p : 'a value_problem) : 'a value_solution =
  let n = p.v_nnodes in
  let lat = p.v_lattice in
  let in_ = Array.init n (fun _ -> lat.make ())
  and out = Array.init n (fun _ -> lat.make ()) in
  let scratch = lat.make () in
  let boundary = Array.make n false in
  List.iter
    (fun b ->
      boundary.(b) <- true;
      lat.assign ~dst:in_.(b) p.v_boundary_value)
    p.v_boundary;
  let order, _ = reverse_postorder n ~succs:p.v_succs ~roots:p.v_boundary in
  (* Every node starts pending. *)
  let pending = Array.make n true and npending = ref n in
  let push v =
    if not pending.(v) then begin
      pending.(v) <- true;
      incr npending
    end
  in
  let iterations = ref 0 in
  let capped = ref false in
  let over_cap () =
    match max_iters with
    | Some m when !iterations >= m ->
        capped := true;
        true
    | _ -> false
  in
  let visit v =
    incr iterations;
    let preds = p.v_preds v in
    if preds <> [] || boundary.(v) then begin
      let first = ref true in
      let meet src =
        if !first then begin
          lat.assign ~dst:in_.(v) src;
          first := false
        end
        else lat.join_into ~dst:in_.(v) src
      in
      if boundary.(v) then meet p.v_boundary_value;
      List.iter (fun u -> meet out.(u)) preds
    end;
    p.v_transfer v ~src:in_.(v) ~dst:scratch;
    if not (lat.equal scratch out.(v)) then begin
      lat.assign ~dst:out.(v) scratch;
      List.iter push (p.v_succs v)
    end
  in
  (* Sweeps over [order], wrapping round while anything is pending:
     a node re-queued ahead of the sweep is visited in this sweep, one
     re-queued behind it (over a back edge) in the next. *)
  let k = ref 0 in
  while !npending > 0 && not (over_cap ()) do
    let v = order.(!k) in
    if pending.(v) then begin
      pending.(v) <- false;
      decr npending;
      visit v
    end;
    k := if !k + 1 = n then 0 else !k + 1
  done;
  Obs.Metrics.incr ~by:!iterations iterations_total;
  let warnings =
    if !capped then begin
      Obs.Log.warn "dataflow: iteration cap hit after %d pops; pre-fixpoint result"
        !iterations;
      [ cap_warning ~max_iters:(Option.get max_iters) ~iterations:!iterations ]
    end
    else []
  in
  {
    v_in = in_;
    v_out = out;
    v_iterations = !iterations;
    v_capped = !capped;
    v_warnings = warnings;
  }

(* Predecessor lists from the terminator successors, deduplicated the
   same way [Cfg.successors] deduplicates its targets. *)
let cfg_preds (blocks : Cfg.block array) : Cfg.label list array =
  let n = Array.length blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun src b ->
      List.iter (fun dst -> preds.(dst) <- src :: preds.(dst))
        (Cfg.successors b))
    blocks;
  Array.map List.rev preds
