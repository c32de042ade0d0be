(* Control-transfer classification against a trace selection (Table 4).

   Every dynamic intra-function control transfer src -> dst is one of:
   - desirable:   dst is src's immediate successor within the same trace
                  (sequential locality fully preserved);
   - neutral:     src terminates its trace and dst starts another trace
                  (a linear ordering of traces can still capture it);
   - undesirable: the transfer enters and/or exits a trace at a
                  nonterminal basic block. *)

type counts = {
  mutable desirable : int;
  mutable undesirable : int;
  mutable neutral : int;
}

let total c = c.desirable + c.undesirable + c.neutral

let fraction part c =
  let t = total c in
  if t = 0 then 0. else float_of_int part /. float_of_int t

type prepared = {
  trace_of : int array;
  pos_in_trace : int array; (* index of the block within its trace *)
  trace_len : int array; (* length of the block's trace *)
}

let prepare (sel : Placement.Trace_select.t) =
  let nblocks = Array.length sel.Placement.Trace_select.trace_of in
  let pos = Array.make nblocks 0 in
  let len = Array.make nblocks 0 in
  Array.iter
    (fun trace ->
      Array.iteri
        (fun idx l ->
          pos.(l) <- idx;
          len.(l) <- Array.length trace)
        trace)
    sel.Placement.Trace_select.traces;
  { trace_of = sel.Placement.Trace_select.trace_of; pos_in_trace = pos; trace_len = len }

let classify_arc p src dst =
  let same_trace = p.trace_of.(src) = p.trace_of.(dst) in
  if same_trace && p.pos_in_trace.(dst) = p.pos_in_trace.(src) + 1 then
    `Desirable
  else begin
    let src_is_tail = p.pos_in_trace.(src) = p.trace_len.(src) - 1 in
    let dst_is_head = p.pos_in_trace.(dst) = 0 in
    if src_is_tail && dst_is_head then `Neutral else `Undesirable
  end

(* Classify all dynamic intra-function transfers of one finished run. *)
let run (selections : Placement.Trace_select.t array)
    (r : Vm.Interp.result) : counts =
  let prepared = Array.map prepare selections in
  let counts = { desirable = 0; undesirable = 0; neutral = 0 } in
  Vm.Interp.iter_arcs r.counts (fun fid src dst n ->
      match classify_arc prepared.(fid) src dst with
      | `Desirable -> counts.desirable <- counts.desirable + n
      | `Neutral -> counts.neutral <- counts.neutral + n
      | `Undesirable -> counts.undesirable <- counts.undesirable + n);
  counts
