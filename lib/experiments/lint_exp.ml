(* impact lint backend.

   Everything here rides on [Context]'s memoized artifacts: the
   pipeline (profile + inlined program) and the per-strategy address
   maps.  Nothing on this path records a trace or simulates a cache —
   that is the point of the linter, and the tests pin it by asserting
   no "simulate"/"trace-record" span appears during a lint run. *)

type result = {
  bench : string;
  strategy : Placement.Strategy.t;
  fell_back : bool;
  report : Analysis.Lint.report;
  estimate : Sim.Estimate.result;
      (** the paper-§5 heuristic for the same map, so one artifact holds
          all three predictors: heuristic estimate, certified bound, and
          (in E19) the simulated truth.  Profile arithmetic only — the
          no-simulation invariant of the lint path still holds. *)
}

(* Same geometry as the strategy-comparison experiment (E17), so the
   static conflict ranking can be read against its simulated miss
   ratios. *)
let config = Icache.Config.make ~size:2048 ~block:64 ()

let lint_entry ?min_prob e (s : Placement.Strategy.t) =
  let id = s.Placement.Strategy.id in
  let p = Context.pipeline e in
  let map = Context.strategy_map e s in
  let input =
    Analysis.Lint.of_pipeline ?min_prob ~strategy:id p ~map ~config
  in
  let profile = p.Placement.Pipeline.profile in
  let estimate =
    Sim.Estimate.estimate config map
      ~block_weight:(Vm.Profile.block_weight profile)
      ~func_entries:(Vm.Profile.func_weight profile)
  in
  {
    bench = Context.name e;
    strategy = s;
    fell_back = Context.fell_back e id;
    report = Analysis.Lint.run input;
    estimate;
  }

(* The per-strategy lints are independent (each takes the entry lock
   only around its memoized lookups), so a multi-lane default pool lints
   strategies concurrently; order is the registry's either way. *)
let sweep ?min_prob e =
  Placement.Pool.map_default (lint_entry ?min_prob e) Placement.Strategy.all

(* Best first: smallest certified miss upper bound (the guarantee),
   then the heuristic tie-breakers — fewer static conflicts, fewer
   broken hot arcs.  A gated analysis certifies nothing, so its bound
   (every access a potential miss) naturally ranks last. *)
let rank results =
  List.stable_sort
    (fun a b ->
      match
        compare a.report.Analysis.Lint.certified.Analysis.Absint.hi
          b.report.Analysis.Lint.certified.Analysis.Absint.hi
      with
      | 0 -> (
        match
          compare a.report.Analysis.Lint.conflict_score
            b.report.Analysis.Lint.conflict_score
        with
        | 0 ->
          compare a.report.Analysis.Lint.hot_arc_broken
            b.report.Analysis.Lint.hot_arc_broken
        | c -> c)
      | c -> c)
    results

let broken_pct (r : Analysis.Lint.report) =
  if r.Analysis.Lint.hot_arc_total = 0 then 0.
  else
    float_of_int r.Analysis.Lint.hot_arc_broken
    /. float_of_int r.Analysis.Lint.hot_arc_total

let strategy_cell r =
  let id = r.strategy.Placement.Strategy.id in
  if r.fell_back then id ^ " (fallback: natural)" else id

let ranking_table bench results =
  let rows =
    List.mapi
      (fun i r ->
        let c = r.report.Analysis.Lint.certified in
        [
          string_of_int (i + 1);
          strategy_cell r;
          Printf.sprintf "[%d, %d]" c.Analysis.Absint.lo
            c.Analysis.Absint.hi;
          string_of_int r.estimate.Sim.Estimate.est_misses;
          Printf.sprintf "%.3f" r.report.Analysis.Lint.conflict_score;
          Report.Fmtutil.pct (broken_pct r.report);
          string_of_int
            (List.length (Analysis.Lint.errors r.report));
          string_of_int
            (List.length (Analysis.Lint.warnings r.report));
        ])
      (rank results)
  in
  Report.Table.make
    ~title:
      (Printf.sprintf
         "Static lint ranking for %s at %s: smallest certified miss \
          bound first, heuristic conflict score as tie-break (no \
          simulation)"
         bench
         (Icache.Config.describe config))
    ~header:
      [ "rank"; "strategy"; "certified misses"; "est misses"; "conflict";
        "hot arcs broken"; "errors"; "warnings" ]
    ~align:Report.Table.[ R; L; R; R; R; R; R; R ]
    rows

let summary r =
  let rep = r.report in
  let by_pass =
    String.concat "  "
      (List.map
         (fun (p, n) -> Printf.sprintf "%s=%d" p n)
         rep.Analysis.Lint.by_pass)
  in
  Printf.sprintf
    "%s/%s: %d finding(s) [%s]  certified misses [%d, %d]  conflict \
     score %.3f  hot arcs broken %d/%d (%s)"
    r.bench (strategy_cell r)
    (List.length rep.Analysis.Lint.findings)
    by_pass rep.Analysis.Lint.certified.Analysis.Absint.lo
    rep.Analysis.Lint.certified.Analysis.Absint.hi
    rep.Analysis.Lint.conflict_score rep.Analysis.Lint.hot_arc_broken
    rep.Analysis.Lint.hot_arc_total
    (Report.Fmtutil.pct (broken_pct rep))

(* ------------------------------------------------------------------ *)
(* JSON (schema impact.lint/v1)                                        *)
(* ------------------------------------------------------------------ *)

let finding_json (f : Analysis.Lint.finding) =
  let opt conv = function None -> Obs.Json.Null | Some v -> conv v in
  Obs.Json.Obj
    [
      ("pass", Obs.Json.String f.Analysis.Lint.pass);
      ( "severity",
        Obs.Json.String
          (Ir.Diag.severity_name f.Analysis.Lint.diag.Ir.Diag.severity) );
      ( "func",
        opt (fun s -> Obs.Json.String s) f.Analysis.Lint.diag.Ir.Diag.func );
      ( "block",
        opt (fun b -> Obs.Json.Int b) f.Analysis.Lint.diag.Ir.Diag.block );
      ("message", Obs.Json.String f.Analysis.Lint.diag.Ir.Diag.message);
      ("score", Obs.Json.Float f.Analysis.Lint.score);
    ]

let result_json r =
  let rep = r.report in
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("strategy", Obs.Json.String r.strategy.Placement.Strategy.id);
      ("fell_back", Obs.Json.Bool r.fell_back);
      ("conflict_score", Obs.Json.Float rep.Analysis.Lint.conflict_score);
      ( "hot_arcs",
        Obs.Json.Obj
          [
            ("total", Obs.Json.Int rep.Analysis.Lint.hot_arc_total);
            ("broken", Obs.Json.Int rep.Analysis.Lint.hot_arc_broken);
          ] );
      ( "by_pass",
        Obs.Json.Obj
          (List.map
             (fun (p, n) -> (p, Obs.Json.Int n))
             rep.Analysis.Lint.by_pass) );
      ("certified", Absint_exp.interval_json rep.Analysis.Lint.certified);
      ( "absint",
        Obs.Json.Obj
          [
            ( "classes",
              Absint_exp.totals_json rep.Analysis.Lint.absint_totals );
            ( "gated",
              match rep.Analysis.Lint.absint_gated with
              | Some reason -> Obs.Json.String reason
              | None -> Obs.Json.Null );
          ] );
      ( "estimate",
        Obs.Json.Obj
          [
            ("compulsory", Obs.Json.Int r.estimate.Sim.Estimate.compulsory);
            ("conflict", Obs.Json.Int r.estimate.Sim.Estimate.conflict);
            ("est_misses", Obs.Json.Int r.estimate.Sim.Estimate.est_misses);
            ( "profile_fetches",
              Obs.Json.Int r.estimate.Sim.Estimate.profile_fetches );
            ( "est_miss_ratio",
              Obs.Json.Float r.estimate.Sim.Estimate.est_miss_ratio );
          ] );
      ( "findings",
        Obs.Json.List (List.map finding_json rep.Analysis.Lint.findings) );
    ]

let report_json ~results =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "impact.lint/v1");
      ("results", Obs.Json.List (List.map result_json results));
    ]
