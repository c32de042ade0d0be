(* Fold a Chrome trace (the [Obs.Span] export, in-process or read from a
   daemon's --trace-out file) into per-layer self time.  A span's self
   time is its duration minus the durations of its direct children on
   the same lane; nesting comes from each event's recorded depth. *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts : float;  (** µs *)
  dur : float;  (** µs *)
  tid : int;
  depth : int;
}

let events_of_json (j : Obs.Json.t) =
  let open Obs.Json in
  let num = function Some (Float f) -> f | Some (Int i) -> float i | _ -> 0.0 in
  let int = function Some (Int i) -> i | _ -> 0 in
  match member "traceEvents" j with
  | Some (List evs) ->
      List.map
        (fun e ->
          let args = match member "args" e with Some (Obj l) -> l | _ -> [] in
          {
            name = (match member "name" e with Some (String s) -> s | _ -> "?");
            attrs =
              List.filter_map
                (function k, String v -> Some (k, v) | _ -> None)
                args;
            ts = num (member "ts" e);
            dur = num (member "dur" e);
            tid = int (member "tid" e);
            depth = int (List.assoc_opt "depth" args);
          })
        evs
  | _ -> failwith "not a Chrome trace"

(* (event, self µs) for every event, in start order per lane. *)
let self_times evs =
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let l = Option.value ~default:[] (Hashtbl.find_opt lanes e.tid) in
      Hashtbl.replace lanes e.tid (e :: l))
    evs;
  Hashtbl.fold
    (fun _ l acc ->
      let l =
        List.sort (fun a b -> compare (a.ts, a.depth) (b.ts, b.depth)) l
        |> List.map (fun e -> (e, ref e.dur))
      in
      let open_at = Hashtbl.create 8 in
      List.iter
        (fun ((e, _) as cell) ->
          (match Hashtbl.find_opt open_at (e.depth - 1) with
          | Some (_, parent_self) when e.depth > 0 ->
              parent_self := !parent_self -. e.dur
          | _ -> ());
          Hashtbl.replace open_at e.depth cell)
        l;
      List.map (fun (e, s) -> (e, !s)) l @ acc)
    lanes []

(* Wall time covered by root spans, summed over lanes (µs). *)
let busy evs =
  List.fold_left (fun acc e -> if e.depth = 0 then acc +. e.dur else acc) 0.0 evs

(* The per-layer row a stage's self time belongs to; [None] is the
   explicit "other" row (benchmark glue no layer span covers). *)
let layer_of e =
  let attr k = Option.value ~default:"?" (List.assoc_opt k e.attrs) in
  let pre p = String.starts_with ~prefix:p e.name in
  match e.name with
  | "profile" -> Some "vm.profile_s"
  | "simplify" -> Some "placement.simplify_s"
  | "inline" -> Some "placement.inline_s"
  | "trace-selection" -> Some "placement.trace_select_s"
  | "func-layout" -> Some "placement.func_layout_s"
  | "global-layout" -> Some "placement.global_layout_s"
  | "address-map" -> Some "placement.address_map_s"
  | "strategy-layout" -> Some ("placement.strategy." ^ attr "strategy" ^ "_s")
  | "pipeline" | "strategy-map" -> Some "placement.pipeline_s"
  | "trace-record" -> Some "sim.record_s"
  | "simulate" -> Some "sim.replay_s"
  | "table" | "absint-exp" | "strategy-exp" | "validate" ->
      Some "experiments.self_s"
  | "serve.parse" -> Some "serve.parse_s"
  | "serve.admission" -> Some "serve.admission_s"
  | "serve.store-lookup" -> Some "serve.store_lookup_s"
  | "serve.strategy-map" -> Some "serve.strategy_map_s"
  | "serve.simulate" -> Some "serve.simulate_s"
  | "serve.certify" -> Some "serve.certify_s"
  | "serve.emit" -> Some "serve.emit_s"
  | "serve.request" -> Some "serve.request_s"
  | _ when pre "absint." -> Some "analysis.absint_s"
  | _ when pre "lint." -> Some "analysis.lint_s"
  | _ -> None

(* Per-layer self seconds plus the "other" seconds. *)
let fold evs =
  let rows = Hashtbl.create 32 in
  let other = ref 0.0 in
  List.iter
    (fun (e, self) ->
      let s = self /. 1e6 in
      match layer_of e with
      | Some k ->
          Hashtbl.replace rows k (s +. Option.value ~default:0.0 (Hashtbl.find_opt rows k))
      | None -> other := !other +. s)
    (self_times evs);
  (rows, !other)

(* Fold the in-process spans recorded so far into [add] (per-layer
   seconds) and return (other seconds, busy seconds); then clear them,
   since re-enabling spans restarts their clock. *)
let drain add =
  let evs = events_of_json (Obs.Span.to_chrome_json ()) in
  let rows, other = fold evs in
  Hashtbl.iter add rows;
  Obs.Span.reset ();
  (evs, other, busy evs /. 1e6)

(* [pairs] pairs of one untraced and one traced run of [run i] (the
   same input for both runs of a pair, and alternating which runs
   first, so host drift and order effects cancel in the overhead
   ratio, which compares times at reference speed).  Traced runs switch
   spans and metrics on; their per-layer rows are averaged into [add].
   Returns every run's result, the traced/untraced time ratio, and the
   traced runs' other, busy and wall seconds. *)
let traced_pairs ~pairs ~add run =
  let untraced = ref 0.0 and traced = ref 0.0 and traced_wall = ref 0.0 in
  let other = ref 0.0 and busy = ref 0.0 and results = ref [] in
  let cal = ref (Util.calibrate ()) in
  let timed f =
    let r, raw, dt, after = Util.timed ~before:!cal f in
    cal := after;
    (r, raw, dt)
  in
  let plain i =
    let r, _, dt = timed (fun () -> run i) in
    untraced := !untraced +. dt;
    results := r :: !results
  in
  let with_spans i =
    Obs.Metrics.set_enabled true;
    Obs.Span.set_enabled true;
    let r, raw, dt =
      timed (fun () -> Obs.Span.with_ ~stage:"perfbench.pass" (fun () -> run i))
    in
    Obs.Span.set_enabled false;
    Obs.Metrics.set_enabled false;
    let _, o, b = drain (fun k v -> add k (v /. float pairs)) in
    traced := !traced +. dt;
    traced_wall := !traced_wall +. raw;
    other := !other +. o;
    busy := !busy +. b;
    results := r :: !results
  in
  for i = 1 to pairs do
    if i mod 2 = 1 then (plain i; with_spans i) else (with_spans i; plain i)
  done;
  (List.rev !results, !traced /. !untraced, !other, !busy, !traced_wall)
