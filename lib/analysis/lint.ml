(* Static layout linter.

   Everything here is computable from (program, weights, address map,
   cache geometry): no trace replay, no cache simulation.  The passes
   mirror the properties the dynamic stack can only observe indirectly:

   - flow conservation catches corrupted profiles before they mislead
     the placement;
   - the reachability pass cross-checks the profile against the CFG
     (weight on a dead block is contradictory) and flags dead bytes
     inside the packed effective region;
   - the hot-arc pass checks the property trace selection exists to
     produce — arcs above MIN_PROB should be fall-throughs;
   - the loop pass charges layouts for spreading a loop body over more
     cache lines/pages than its size requires;
   - the set-conflict pass is the paper's "mapping conflict" discussion
     made static: call-graph-adjacent functions whose hot lines co-map
     to the same cache sets will evict each other, in proportion to how
     often control crosses between them. *)

open Ir

type input = {
  program : Prog.program;
  weights : int -> Placement.Weight.cfg_weights;
  calls : Placement.Weight.call_weights;
  profile : Vm.Profile.t option;
  map : Placement.Address_map.t;
  config : Icache.Config.t;
  strategy : string option;
  min_prob : float;
}

let of_pipeline ?(min_prob = Placement.Trace_select.default_min_prob)
    ?strategy (p : Placement.Pipeline.t) ~map ~config =
  let profile = p.Placement.Pipeline.profile in
  {
    program = p.Placement.Pipeline.program;
    weights = (fun fid -> Placement.Weight.cfg_of_profile profile fid);
    calls = Placement.Weight.call_of_profile profile;
    profile = Some profile;
    map;
    config;
    strategy;
    min_prob;
  }

type finding = { pass : string; diag : Diag.t; score : float }

type report = {
  findings : finding list;
  by_pass : (string * int) list;
  conflict_score : float;
  hot_arc_total : int;
  hot_arc_broken : int;
  certified : Absint.interval;
  absint_totals : Absint.totals;
  absint_gated : string option;
}

let pass_names =
  [ "flow"; "unreachable"; "hot-arc"; "loop-split"; "set-conflict"; "absint" ]

(* Telemetry: per-pass finding counters plus the grand total. *)
let findings_total =
  Obs.Metrics.counter "lint.findings" ~help:"lint findings across all passes"

let flow_violations =
  Obs.Metrics.counter "lint.flow_violations"
    ~help:"profile flow-conservation violations found by the linter"

let unreachable_found =
  Obs.Metrics.counter "lint.unreachable"
    ~help:"statically dead blocks flagged (weighted or hot-placed)"

let hot_arc_breaks =
  Obs.Metrics.counter "lint.hot_arc_breaks"
    ~help:"hot arcs not placed as fall-throughs"

let loop_straddles =
  Obs.Metrics.counter "lint.loop_straddles"
    ~help:"loops straddling avoidable cache-line/page boundaries"

let conflict_pairs =
  Obs.Metrics.counter "lint.conflict_pairs"
    ~help:"call-graph-adjacent function pairs with overlapping hot sets"

let guaranteed_miss_blocks =
  Obs.Metrics.counter "lint.guaranteed_miss_blocks"
    ~help:"weighted blocks with at least one certified always-miss line"

let span pass f = Obs.Span.with_ ~stage:("lint." ^ pass) f

(* ------------------------------------------------------------------ *)
(* Shared address helpers                                              *)
(* ------------------------------------------------------------------ *)

let addr t fid l = t.map.Placement.Address_map.block_addr.(fid).(l)

let bytes t fid l =
  t.map.Placement.Address_map.block_words.(fid).(l) * Insn.bytes_per_insn

let fname t fid = t.program.Prog.funcs.(fid).Prog.name

let mk t ?(severity = Diag.Warning) ~pass ~score ?func ?block fmt =
  Fmt.kstr
    (fun message ->
      {
        pass;
        score;
        diag =
          Diag.make ~severity ~stage:Diag.Lint ?func ?block
            ?strategy:t.strategy "%s" message;
      })
    fmt

(* Distinct cache-line (or page) indices covered by [addr, addr+bytes). *)
let granules_of ~granule ranges =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (a, b) ->
      if b > 0 then
        for g = a / granule to (a + b - 1) / granule do
          Hashtbl.replace t g ()
        done)
    ranges;
  t

(* ------------------------------------------------------------------ *)
(* Pass: profile flow conservation                                     *)
(* ------------------------------------------------------------------ *)

let flow_pass t =
  match t.profile with
  | None -> []
  | Some profile ->
    List.map
      (fun (d : Diag.t) ->
        Obs.Metrics.incr flow_violations;
        {
          pass = "flow";
          score = 1.;
          (* Re-staged under Lint: the finding is the linter's, carrying
             its exit code, not Validate's Profile stage. *)
          diag = { d with Diag.stage = Diag.Lint; strategy = t.strategy };
        })
      (Placement.Validate.flow profile)

(* ------------------------------------------------------------------ *)
(* Pass: statically dead blocks                                        *)
(* ------------------------------------------------------------------ *)

let unreachable_pass t =
  let boundary =
    Placement.Address_map.code_base
    + t.map.Placement.Address_map.effective_bytes
  in
  let acc = ref [] in
  Array.iteri
    (fun fid (f : Prog.func) ->
      let w = t.weights fid in
      let reach = Cfg.reachable f.Prog.blocks in
      Array.iteri
        (fun l _ ->
          if not reach.(l) then begin
            let bw = w.Placement.Weight.block l in
            if bw > 0 then begin
              Obs.Metrics.incr unreachable_found;
              acc :=
                mk t ~severity:Diag.Error ~pass:"unreachable"
                  ~score:(float_of_int bw) ~func:f.Prog.name ~block:l
                  "statically unreachable block carries profile weight %d"
                  bw
                :: !acc
            end
            else if addr t fid l < boundary then begin
              Obs.Metrics.incr unreachable_found;
              acc :=
                mk t ~pass:"unreachable"
                  ~score:(float_of_int (bytes t fid l))
                  ~func:f.Prog.name ~block:l
                  "statically unreachable block occupies %d bytes inside \
                   the effective region"
                  (bytes t fid l)
                :: !acc
            end
          end)
        f.Prog.blocks)
    t.program.Prog.funcs;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Pass: hot arcs broken across non-fall-through placements            *)
(* ------------------------------------------------------------------ *)

let hot_arc_pass t =
  let acc = ref [] in
  let total = ref 0 and broken = ref 0 in
  Array.iteri
    (fun fid (f : Prog.func) ->
      let w = t.weights fid in
      if w.Placement.Weight.func_weight > 0 then begin
        let dom = Dom.dominators f in
        Array.iteri
          (fun l _ ->
            let wl = w.Placement.Weight.block l in
            if wl > 0 then
              List.iter
                (fun (dst, c) ->
                  (* The trace-selection qualification: the arc carries
                     at least MIN_PROB of both endpoints.  A self-loop
                     cannot fall through to itself, and a back edge
                     (target dominates source) can never fall through
                     under any layout placing the header first — trace
                     growth stops there too — so neither counts. *)
                  let wd = w.Placement.Weight.block dst in
                  if
                    dst <> l && c > 0
                    && (not (Dom.dominates dom dst l))
                    && float_of_int c >= t.min_prob *. float_of_int wl
                    && float_of_int c >= t.min_prob *. float_of_int wd
                  then begin
                    total := !total + c;
                    let fall = addr t fid l + bytes t fid l in
                    if addr t fid dst <> fall then begin
                      broken := !broken + c;
                      Obs.Metrics.incr hot_arc_breaks;
                      acc :=
                        mk t ~pass:"hot-arc" ~score:(float_of_int c)
                          ~func:f.Prog.name ~block:l
                          "hot arc b%d->b%d (weight %d, p=%.2f) is not a \
                           fall-through: target placed %+d bytes away"
                          l dst c
                          (float_of_int c /. float_of_int wl)
                          (addr t fid dst - fall)
                        :: !acc
                    end
                  end)
                (w.Placement.Weight.arcs_out l))
          f.Prog.blocks
      end)
    t.program.Prog.funcs;
  (List.rev !acc, !total, !broken)

(* ------------------------------------------------------------------ *)
(* Pass: loop bodies straddling avoidable line/page boundaries         *)
(* ------------------------------------------------------------------ *)

(* Page granule of the loop-split pass: a conventional 4KB VM page. *)
let page_bytes = 4096

let loop_pass t =
  let line = t.config.Icache.Config.block in
  let acc = ref [] in
  Array.iteri
    (fun fid (f : Prog.func) ->
      let w = t.weights fid in
      if w.Placement.Weight.func_weight > 0 then begin
        let loops = Loops.of_func f in
        Array.iter
          (fun (loop : Loops.loop) ->
            let hw = w.Placement.Weight.block loop.Loops.header in
            if hw > 0 then begin
              let ranges =
                List.map (fun l -> (addr t fid l, bytes t fid l)) loop.Loops.body
              in
              let body_bytes =
                List.fold_left (fun s (_, b) -> s + b) 0 ranges
              in
              let start =
                List.fold_left (fun m (a, _) -> min m a) max_int ranges
              in
              let check ~granule ~what =
                let used = Hashtbl.length (granules_of ~granule ranges) in
                (* The avoidability baseline is a contiguous placement
                   at the loop's own start address: fragmentation is the
                   layout's fault, crossing a boundary because the start
                   is unaligned is not (nothing in the pipeline aligns). *)
                let needed =
                  ((start + body_bytes - 1) / granule) - (start / granule) + 1
                in
                if body_bytes > 0 && used > needed then begin
                  Obs.Metrics.incr loop_straddles;
                  acc :=
                    mk t ~pass:"loop-split"
                      ~score:(float_of_int (hw * (used - needed)))
                      ~func:f.Prog.name ~block:loop.Loops.header
                      "loop at b%d (depth %d, weight %d): body of %d bytes \
                       straddles %d %s where %d suffice"
                      loop.Loops.header loop.Loops.depth hw body_bytes used
                      what needed
                    :: !acc
                end
              in
              check ~granule:line ~what:"cache lines";
              (* Page straddles only matter for bodies a page could hold;
                 bigger bodies cross pages no matter the layout. *)
              if body_bytes <= page_bytes then
                check ~granule:page_bytes ~what:"pages"
            end)
          loops.Loops.loops
      end)
    t.program.Prog.funcs;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Pass: static cache-set conflict estimation                          *)
(* ------------------------------------------------------------------ *)

(* Per function: how many distinct hot cache lines map to each set,
   where hot = the block has nonzero profile weight. *)
let set_footprint t fid (f : Prog.func) =
  let nsets = Icache.Config.nsets t.config in
  let line = t.config.Icache.Config.block in
  let w = t.weights fid in
  let ranges = ref [] in
  Array.iteri
    (fun l _ ->
      if w.Placement.Weight.block l > 0 then
        ranges := (addr t fid l, bytes t fid l) :: !ranges)
    f.Prog.blocks;
  let per_set = Array.make nsets 0 in
  Hashtbl.iter
    (fun g () -> per_set.(g mod nsets) <- per_set.(g mod nsets) + 1)
    (granules_of ~granule:line !ranges);
  per_set

let conflict_pass t =
  let nsets = Icache.Config.nsets t.config in
  let ways = Icache.Config.ways_of t.config in
  let nfuncs = Array.length t.program.Prog.funcs in
  let hot fid =
    (t.weights fid).Placement.Weight.func_weight > 0
  in
  (* Footprints built lazily: cold functions never pay. *)
  let footprints = Array.make nfuncs None in
  let footprint fid =
    match footprints.(fid) with
    | Some fp -> fp
    | None ->
      let fp = set_footprint t fid t.program.Prog.funcs.(fid) in
      footprints.(fid) <- Some fp;
      fp
  in
  (* Unordered call-graph-adjacent pairs of hot functions. *)
  let pairs = Hashtbl.create 64 in
  for fid = 0 to nfuncs - 1 do
    List.iter
      (fun g ->
        if g <> fid then begin
          let key = (min fid g, max fid g) in
          if not (Hashtbl.mem pairs key) then Hashtbl.add pairs key ()
        end)
      (t.calls.Placement.Weight.callees fid)
  done;
  let acc = ref [] in
  let score = ref 0. in
  Hashtbl.iter
    (fun (f, g) () ->
      let w =
        t.calls.Placement.Weight.pair f g + t.calls.Placement.Weight.pair g f
      in
      if w > 0 && hot f && hot g then begin
        let a = footprint f and b = footprint g in
        let overlap = ref 0 in
        for s = 0 to nsets - 1 do
          (* Lines that cannot co-reside in set [s]: beyond [ways], every
             extra line evicts one, bounded by the smaller footprint. *)
          overlap :=
            !overlap + min (min a.(s) b.(s)) (max 0 (a.(s) + b.(s) - ways))
        done;
        if !overlap > 0 then begin
          Obs.Metrics.incr conflict_pairs;
          let pair_score =
            float_of_int w *. float_of_int !overlap /. float_of_int nsets
          in
          score := !score +. pair_score;
          acc :=
            mk t ~pass:"set-conflict" ~score:pair_score ~func:(fname t f)
              "hot lines of %s and %s co-map to %d of %d cache sets \
               (%d dynamic calls between them)"
              (fname t f) (fname t g) !overlap nsets w
            :: !acc
        end
      end)
    pairs;
  (List.rev !acc, !score)

(* ------------------------------------------------------------------ *)
(* Pass: sound static cache-state classification                       *)
(* ------------------------------------------------------------------ *)

(* Unlike set-conflict's heuristic score this pass makes guarantees:
   the abstract interpretation's always-miss lines WILL conflict on
   every run, and the certified interval [lo, hi] bounds the misses of
   any execution matching the profile counts.  Still simulation-free:
   {!Absint} is a pair of dataflow solves. *)

let absint_pass t =
  let a = Absint.analyze t.config t.map t.program in
  let counts fid l = (t.weights fid).Placement.Weight.block l in
  let certified = Absint.profile_interval a ~weights:t.weights in
  let acc = ref [] in
  (* Degradations (gated configs, irreducible functions, capped solves)
     surface as zero-score findings so the report says WHY bounds are
     loose. *)
  List.iter
    (fun (d : Diag.t) ->
      acc :=
        {
          pass = "absint";
          score = 0.;
          diag = { d with Diag.strategy = t.strategy };
        }
        :: !acc)
    a.Absint.warnings;
  for v = 0 to a.Absint.nnodes - 1 do
    let fid = a.Absint.node_fid.(v) and l = a.Absint.node_label.(v) in
    let w = counts fid l in
    if w > 0 then begin
      let nmiss =
        Array.fold_left
          (fun n k -> match k with Absint.Miss -> n + 1 | _ -> n)
          0
          a.Absint.cls.(v)
      in
      if nmiss > 0 then begin
        Obs.Metrics.incr guaranteed_miss_blocks;
        acc :=
          mk t ~pass:"absint"
            ~score:(float_of_int (w * nmiss))
            ~func:(fname t fid) ~block:l
            "certified conflict: %d of %d line fetches always miss \
             (weight %d)"
            nmiss a.Absint.naccesses.(v) w
          :: !acc
      end
    end
  done;
  (List.rev !acc, certified, Absint.totals a, a.Absint.gated)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run (t : input) : report =
  let flow = span "flow" (fun () -> flow_pass t) in
  let unreachable = span "unreachable" (fun () -> unreachable_pass t) in
  let hot_arcs, hot_arc_total, hot_arc_broken =
    span "hot-arc" (fun () -> hot_arc_pass t)
  in
  let loops = span "loop-split" (fun () -> loop_pass t) in
  let conflicts, conflict_score =
    span "set-conflict" (fun () -> conflict_pass t)
  in
  let absints, certified, absint_totals, absint_gated =
    span "absint" (fun () -> absint_pass t)
  in
  let all = flow @ unreachable @ hot_arcs @ loops @ conflicts @ absints in
  Obs.Metrics.incr ~by:(List.length all) findings_total;
  (* Errors lead; inside a severity class the biggest scores first, and
     ties keep pass order for determinism. *)
  let indexed = List.mapi (fun i f -> (i, f)) all in
  let sorted =
    List.stable_sort
      (fun (i, a) (j, b) ->
        let sev d = if Diag.is_error d.diag then 0 else 1 in
        match compare (sev a) (sev b) with
        | 0 -> (
          match compare b.score a.score with 0 -> compare i j | c -> c)
        | c -> c)
      indexed
  in
  {
    findings = List.map snd sorted;
    by_pass =
      List.map
        (fun p ->
          (p, List.length (List.filter (fun f -> f.pass = p) all)))
        pass_names;
    conflict_score;
    hot_arc_total;
    hot_arc_broken;
    certified;
    absint_totals;
    absint_gated;
  }

let errors r =
  List.filter_map
    (fun f -> if Diag.is_error f.diag then Some f.diag else None)
    r.findings

let warnings r =
  List.filter_map
    (fun f -> if Diag.is_error f.diag then None else Some f.diag)
    r.findings
