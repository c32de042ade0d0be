(* Trace selection — the appendix "Algorithm TraceSelection" of the paper,
   with MIN_PROB = 0.7.

   Basic blocks that tend to execute in sequence are grouped into traces;
   traces are the units of instruction placement.  A trace grows from a
   seed (the heaviest unselected block) forward through best successors
   and backward through best predecessors; an arc qualifies only when it
   is the dominant arc of both endpoints (its weight is at least MIN_PROB
   of the weight of both the source and the destination block). *)

open Ir

let default_min_prob = 0.7

type t = {
  trace_of : int array; (* block label -> trace id *)
  traces : Cfg.label array array; (* trace id -> blocks in control order *)
}

let entry_label : Cfg.label = 0

(* Telemetry: total traces formed, across every function and caller
   (the pipeline, the impact/c3 strategies, experiments). *)
let traces_selected =
  Obs.Metrics.counter "layout.traces_selected"
    ~help:"traces formed by Algorithm TraceSelection"

let select ?(min_prob = default_min_prob) (f : Prog.func)
    (w : Weight.cfg_weights) : t =
  let n = Array.length f.blocks in
  let trace_of = Array.make n (-1) in
  if w.func_weight = 0 then begin
    (* Non-executed function: every basic block forms its own trace. *)
    let traces = Array.init n (fun l -> [| l |]) in
    Array.iteri (fun l _ -> trace_of.(l) <- l) trace_of;
    Obs.Metrics.incr ~by:n traces_selected;
    { trace_of; traces }
  end
  else begin
    let selected l = trace_of.(l) >= 0 in
    (* Deterministic "arc with the highest execution count": ties broken
       toward the lower label. *)
    let heaviest arcs =
      List.fold_left
        (fun best (l, c) ->
          match best with
          | None -> Some (l, c)
          | Some (bl, bc) ->
            if c > bc || (c = bc && l < bl) then Some (l, c) else best)
        None arcs
    in
    let ratio_ok num den =
      den > 0 && float_of_int num >= min_prob *. float_of_int den
    in
    let best_successor bb =
      match heaviest (w.arcs_out bb) with
      | None -> None
      | Some (dst, c) ->
        if c = 0 then None
        else if not (ratio_ok c (w.block bb)) then None
        else if not (ratio_ok c (w.block dst)) then None
        else if selected dst then None
        else Some dst
    in
    let best_predecessor bb =
      match heaviest (w.arcs_in bb) with
      | None -> None
      | Some (src, c) ->
        if c = 0 then None
        else if not (ratio_ok c (w.block bb)) then None
        else if not (ratio_ok c (w.block src)) then None
        else if selected src then None
        else Some src
    in
    (* Seeds in decreasing weight order (ties toward the lower label). *)
    let seeds = Array.init n (fun l -> l) in
    Array.sort
      (fun a b ->
        match compare (w.block b) (w.block a) with
        | 0 -> compare a b
        | c -> c)
      seeds;
    let traces = ref [] in
    let ntraces = ref 0 in
    Array.iter
      (fun seed ->
        if not (selected seed) then begin
          let id = !ntraces in
          incr ntraces;
          trace_of.(seed) <- id;
          (* Grow the trace forward. *)
          let forward = ref [] in
          let current = ref seed in
          let continue = ref true in
          while !continue do
            match best_successor !current with
            | Some dst when dst <> entry_label ->
              trace_of.(dst) <- id;
              forward := dst :: !forward;
              current := dst
            | Some _ | None -> continue := false
          done;
          (* Grow the trace backward. *)
          let backward = ref [] in
          let current = ref seed in
          let continue = ref true in
          while !continue do
            if !current = entry_label then continue := false
            else
              match best_predecessor !current with
              | Some src ->
                trace_of.(src) <- id;
                backward := src :: !backward;
                current := src
              | None -> continue := false
          done;
          let blocks =
            !backward @ (seed :: List.rev !forward)
          in
          traces := Array.of_list blocks :: !traces
        end)
      seeds;
    Obs.Metrics.incr ~by:!ntraces traces_selected;
    { trace_of; traces = Array.of_list (List.rev !traces) }
  end

let head trace = trace.(0)
let tail trace = trace.(Array.length trace - 1)

let trace_weight (w : Weight.cfg_weights) trace =
  Array.fold_left (fun acc l -> acc + w.block l) 0 trace

(* Every block belongs to exactly one trace. *)
let is_partition t nblocks =
  Array.length t.trace_of = nblocks
  && Array.for_all (fun id -> id >= 0) t.trace_of
  && begin
       let seen = Array.make nblocks 0 in
       Array.iter (Array.iter (fun l -> seen.(l) <- seen.(l) + 1)) t.traces;
       Array.for_all (fun c -> c = 1) seen
     end
