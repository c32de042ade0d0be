(* Function body layout — the paper's appendix [Algorithm
   FunctionBodyLayout] plus step 4's rule that never-executed traces move
   to the bottom of the function.

   Starting from the trace containing the function entrance, the placement
   repeatedly follows the strongest terminal-to-terminal connection: the
   heaviest arc from the tail block of the current trace to the head block
   of a not-yet-placed nonzero trace.  When no such connection exists, it
   restarts from the most important unplaced nonzero trace.  Zero-weight
   traces are appended afterwards, forming the function's non-executed
   region. *)

open Ir

type t = {
  order : Cfg.label array; (* all blocks, layout order *)
  active_blocks : int; (* prefix length of [order] that is effective *)
  active_bytes : int; (* byte size of the effective region *)
  total_bytes : int;
}

(* Telemetry shared by the body layouts: blocks placed outside the
   packed effective region, and block-chain merges (Pettis-Hansen and
   ext-TSP). *)
let dead_blocks_sunk =
  Obs.Metrics.counter "layout.dead_blocks_sunk"
    ~help:"never-executed blocks placed after the effective region"

let chains_merged =
  Obs.Metrics.counter "layout.chains_merged"
    ~help:"block-chain merges applied (Pettis-Hansen + ext-TSP)"

(* The one constructor: [active] labels form the effective region, in
   order; [dead] ones follow it. *)
let make (f : Prog.func) ~active ~dead : t =
  Obs.Metrics.incr ~by:(List.length dead) dead_blocks_sunk;
  let bytes =
    List.fold_left (fun acc l -> acc + Cfg.byte_size f.blocks.(l)) 0
  in
  {
    order = Array.of_list (active @ dead);
    active_blocks = List.length active;
    active_bytes = bytes active;
    total_bytes = Prog.func_byte_size f;
  }

let labels (f : Prog.func) = List.init (Array.length f.blocks) Fun.id

(* Never-executed function: original order, empty effective region. *)
let layout_unexecuted (f : Prog.func) : t = make f ~active:[] ~dead:(labels f)

let layout (f : Prog.func) (w : Weight.cfg_weights) (sel : Trace_select.t) : t
    =
  if w.func_weight = 0 then layout_unexecuted f
  else begin
  let ntraces = Array.length sel.traces in
  let weights =
    Array.map (fun trace -> Trace_select.trace_weight w trace) sel.traces
  in
  let visited = Array.make ntraces false in
  let placed = ref [] in
  (* Heaviest arc from the tail of [trace] to the head of an unvisited
     nonzero trace (terminal-to-terminal connection only). *)
  let best_connection trace =
    let tail = Trace_select.tail trace in
    List.fold_left
      (fun best (dst, c) ->
        let id = sel.trace_of.(dst) in
        if
          c > 0 && (not visited.(id))
          && weights.(id) > 0
          && Trace_select.head sel.traces.(id) = dst
        then
          match best with
          | Some (_, bc) when bc >= c -> best
          | _ -> Some (id, c)
        else best)
      None (w.arcs_out tail)
  in
  let most_important () =
    let best = ref None in
    Array.iteri
      (fun id wt ->
        if (not visited.(id)) && wt > 0 then
          match !best with
          | Some (_, bw) when bw >= wt -> ()
          | _ -> best := Some (id, wt))
      weights;
    !best
  in
  let entry_trace = sel.trace_of.(0) in
  (* The entry trace starts the placement even if the profile somehow
     recorded no entry weight. *)
  let current = ref (Some entry_trace) in
  while !current <> None do
    (match !current with
    | Some id ->
      visited.(id) <- true;
      placed := id :: !placed;
      current :=
        (match best_connection sel.traces.(id) with
        | Some (next, _) -> Some next
        | None -> (
          match most_important () with
          | Some (next, _) -> Some next
          | None -> None))
    | None -> ());
    ()
  done;
  let active_trace_order = List.rev !placed in
  (* Never-executed traces go to the bottom, in trace-id order. *)
  let inactive =
    List.filter
      (fun id -> not visited.(id))
      (List.init ntraces (fun id -> id))
  in
  let order_of ids =
    List.concat_map (fun id -> Array.to_list sel.traces.(id)) ids
  in
  make f ~active:(order_of active_trace_order) ~dead:(order_of inactive)
  end

(* Identity layout: original block order, everything treated as active.
   This is the unoptimized baseline. *)
let natural (f : Prog.func) : t = make f ~active:(labels f) ~dead:[]

let is_permutation t nblocks =
  Array.length t.order = nblocks
  && begin
       let seen = Array.make nblocks false in
       Array.iter (fun l -> seen.(l) <- true) t.order;
       Array.for_all (fun b -> b) seen
     end
