(* The round-robin dataflow solver: a FIFO worklist over the boundary
   nodes, then nodes 0..n-1, each re-queued when a predecessor's value
   changes.  Kept as the reference the reverse-postorder solver of
   [Analysis.Dataflow] is checked against. *)

open Analysis.Dataflow

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
  let on_list = Array.make n false in
  let queue = Queue.create () in
  let push v =
    if not on_list.(v) then begin
      on_list.(v) <- true;
      Queue.add v queue
    end
  in
  List.iter push p.v_boundary;
  for v = 0 to n - 1 do
    push v
  done;
  let iterations = ref 0 in
  let capped = ref false in
  while
    not
      (Queue.is_empty queue
      ||
      match max_iters with
      | Some m when !iterations >= m ->
          capped := true;
          true
      | _ -> false)
  do
    let v = Queue.pop queue in
    on_list.(v) <- false;
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
  done;
  {
    v_in = in_;
    v_out = out;
    v_iterations = !iterations;
    v_capped = !capped;
    v_warnings = [];
  }
