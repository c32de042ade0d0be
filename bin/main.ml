(* impact — command-line driver for the IMPACT-I instruction placement
   reproduction: run benchmarks, inspect the placement pipeline, and
   regenerate the paper's tables. *)

open Cmdliner

let bench_names_arg =
  let doc = "Restrict to these benchmarks (default: all ten)." in
  Arg.(value & opt (some (list string)) None & info [ "b"; "benchmarks" ] ~doc)

let scale_arg =
  let doc =
    "Workload scale factor: 1 (default) runs the paper's programs as-is; \
     above 1 every benchmark is the scaled-up variant (bigger DFAs, a \
     deeper call graph, a larger library surface) with the same name, \
     inputs and outputs."
  in
  Arg.(value & opt Cli.positive 1 & info [ "scale" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* Cache geometry flags (simulate, estimate, absint)                   *)
(* ------------------------------------------------------------------ *)

let assoc_conv =
  let parse = function
    | "direct" -> Ok Icache.Config.Direct
    | "full" -> Ok Icache.Config.Full
    | s -> (
      match int_of_string_opt s with
      | Some n -> Ok (Icache.Config.Ways n)
      | None ->
        Error
          (Printf.sprintf
             "invalid value '%s', expected direct, N (ways) or full" s))
  in
  let print ppf = function
    | Icache.Config.Direct -> Format.pp_print_string ppf "direct"
    | Icache.Config.Full -> Format.pp_print_string ppf "full"
    | Icache.Config.Ways n -> Format.pp_print_int ppf n
  in
  Arg.conv' (parse, print)

let fill_conv =
  let parse s =
    let bad =
      Error
        (Printf.sprintf
           "invalid value '%s', expected whole, sector:N or partial" s)
    in
    match String.split_on_char ':' s with
    | [ "whole" ] -> Ok Icache.Config.Whole
    | [ "partial" ] -> Ok Icache.Config.Partial
    | [ "sector"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Icache.Config.Sectored n)
      | None -> bad)
    | _ -> bad
  in
  let print ppf = function
    | Icache.Config.Whole -> Format.pp_print_string ppf "whole"
    | Icache.Config.Partial -> Format.pp_print_string ppf "partial"
    | Icache.Config.Sectored n -> Format.fprintf ppf "sector:%d" n
  in
  Arg.conv' (parse, print)

(* The validated cache geometry of --size and --block, plus --assoc and
   --fill/--prefetch where a command offers them (the rest stay at the
   direct-mapped, whole-fill default).  A malformed value or an
   impossible geometry ([Icache.Config.Invalid]) is a usage error, exit
   124, like any flag cmdliner rejects. *)
let geometry_term ?(with_assoc = false) ?(with_fill = false) () =
  let size =
    Arg.(value & opt int 2048 & info [ "size" ] ~doc:"Cache size in bytes.")
  in
  let block =
    Arg.(value & opt int 64 & info [ "block" ] ~doc:"Block size in bytes.")
  in
  let assoc =
    if with_assoc then
      let doc = "Associativity: direct, N (ways), or full." in
      Arg.(value & opt assoc_conv Icache.Config.Direct & info [ "assoc" ] ~doc)
    else Term.const Icache.Config.Direct
  in
  let fill, prefetch =
    if with_fill then
      let doc = "Fill policy: whole, sector:N, or partial." in
      ( Arg.(value & opt fill_conv Icache.Config.Whole & info [ "fill" ] ~doc),
        Arg.(
          value & flag & info [ "prefetch" ] ~doc:"Next-line tagged prefetch.")
      )
    else (Term.const Icache.Config.Whole, Term.const false)
  in
  let make size block assoc fill prefetch =
    match Icache.Config.make ~assoc ~fill ~prefetch ~size ~block () with
    | config -> Ok config
    | exception Icache.Config.Invalid msg ->
      Error (Printf.sprintf "invalid cache geometry: %s" msg)
  in
  Term.term_result' ~usage:true
    Term.(const make $ size $ block $ assoc $ fill $ prefetch)

(* ------------------------------------------------------------------ *)
(* Telemetry flags (table-producing commands)                          *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  trace_out : string option;
  metrics_out : string option;
  json_out : string option;
  quiet : bool;
}

let obs_term =
  let trace_out =
    let doc =
      "Record stage spans and write them as Chrome trace-event JSON to \
       $(docv); load the file in chrome://tracing or Perfetto."
    in
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc =
      "Enable the metrics registry and write its text dump to $(docv) \
       ($(b,-) writes to stderr)."
    in
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let json_out =
    let doc =
      "Write the regenerated tables (header + rows, exactly as printed, \
       plus per-table wall times) as machine-readable JSON to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let quiet =
    let doc =
      "Suppress progress and warning chatter; stdout carries the tables \
       only (errors still reach stderr)."
    in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Term.(
    const (fun trace_out metrics_out json_out quiet ->
        { trace_out; metrics_out; json_out; quiet })
    $ trace_out $ metrics_out $ json_out $ quiet)

(* -j N: a multi-lane pool fans out benchmarks within a table,
   configurations within a sweep, and strategies within a lint sweep,
   all with bit-identical output. *)
let jobs_term =
  Cli.jobs
    ~default:(Domain.recommended_domain_count ())
    "Use $(docv) domains (default: the number of cores).  Output is \
     bit-identical to $(b,-j 1)."

let with_telemetry o =
  Cli.with_telemetry ~quiet:o.quiet ~trace_out:o.trace_out
    ~metrics_out:o.metrics_out

(* Machine-readable table report: one object per regenerated table with
   the header and rows exactly as printed, so downstream tooling never
   re-parses the text rendering. *)
let outcome_json (o : Experiments.Runner.outcome) =
  let strings ss = Obs.Json.List (List.map (fun s -> Obs.Json.String s) ss) in
  Obs.Json.Obj
    [
      ("id", Obs.Json.String o.Experiments.Runner.spec.Experiments.Runner.id);
      ( "title",
        Obs.Json.String o.Experiments.Runner.spec.Experiments.Runner.title );
      ( "table_title",
        Obs.Json.String (Report.Table.title o.Experiments.Runner.table) );
      ("header", strings (Report.Table.header o.Experiments.Runner.table));
      ( "rows",
        Obs.Json.List
          (List.map
             (fun row -> strings row)
             (Report.Table.rows o.Experiments.Runner.table)) );
      ("wall_seconds", Obs.Json.Float o.Experiments.Runner.wall_seconds);
      ( "warnings",
        strings
          (List.map Ir.Diag.to_string o.Experiments.Runner.fresh_warnings) );
    ]

let write_json_report path ~names outcomes =
  Obs.Json.to_file path
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "impact.table-run/v1");
         ( "benchmarks",
           match names with
           | None -> Obs.Json.Null
           | Some ns ->
             Obs.Json.List (List.map (fun n -> Obs.Json.String n) ns) );
         ("tables", Obs.Json.List (List.map outcome_json outcomes));
       ])

(* --validate for table runs: cheap invariant checks by default, [full]
   adds flow conservation and the simulation cross-check, [off] skips.
   Violations go to stderr and the first error decides the exit code
   (see the handler at the bottom of this file). *)
let validate_arg =
  let doc =
    "Pipeline invariant verification: $(b,off), $(b,cheap) (default; \
     structure, selection, layouts, every strategy's address map, trace \
     layout-invariance) or $(b,full) (adds profile flow conservation \
     and the simulation access-count cross-check)."
  in
  let level =
    Arg.enum
      [
        ("off", None);
        ("cheap", Some Experiments.Validation.Cheap);
        ("full", Some Experiments.Validation.Full);
      ]
  in
  Arg.(
    value
    & opt level (Some Experiments.Validation.Cheap)
    & info [ "validate" ] ~docv:"LEVEL" ~doc)

let run_validation level ctx =
  match level with
  | None -> ()
  | Some level ->
    let diags = Experiments.Validation.check ~level ctx in
    List.iter
      (fun d ->
        let line = Ir.Diag.to_string d in
        if Ir.Diag.is_error d then Obs.Log.error_raw line
        else Obs.Log.warn_raw line)
      diags;
    Ir.Diag.raise_first diags

(* impact list *)
let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun b ->
        Printf.printf "  %-9s %s\n" b.Workloads.Bench.name
          b.Workloads.Bench.description)
      Workloads.Registry.all;
    print_endline "\nlayout strategies (impact simulate --layout ID):";
    List.iter
      (fun s ->
        Printf.printf "  %-9s %s\n" s.Placement.Strategy.id
          s.Placement.Strategy.title)
      Placement.Strategy.all;
    print_endline "\nexperiments (impact table ID):";
    List.iter
      (fun s ->
        let alias =
          match
            List.find_opt
              (fun (_, id) -> id = s.Experiments.Runner.id)
              Experiments.Runner.aliases
          with
          | Some (alias, _) -> Printf.sprintf "  (alias: %s)" alias
          | None -> ""
        in
        Printf.printf "  %-3s %s%s\n" s.Experiments.Runner.id
          s.Experiments.Runner.title alias)
      Experiments.Runner.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmarks, layout strategies and experiments")
    Term.(const run $ const ())

(* impact table N *)
let table_cmd =
  let id_arg =
    (* Derive the advertised range from the registry so it cannot rot as
       experiments are added. *)
    let ids = List.map (fun s -> s.Experiments.Runner.id) Experiments.Runner.all in
    let doc =
      Printf.sprintf "Experiment id (%s-%s) or alias; see `impact list'."
        (List.hd ids)
        (List.nth ids (List.length ids - 1))
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id names scale validate obs jobs =
    with_telemetry obs @@ fun () ->
    Placement.Pool.with_default jobs @@ fun () ->
    let spec = Experiments.Runner.find id in
    let ctx = Experiments.Context.create ~scale ?names () in
    let o = Experiments.Runner.run_spec ctx spec in
    print_string (Report.Table.render o.Experiments.Runner.table);
    Option.iter (fun p -> write_json_report p ~names [ o ]) obs.json_out;
    run_validation validate ctx
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables")
    Term.(
      const run $ id_arg $ bench_names_arg $ scale_arg $ validate_arg
      $ obs_term $ jobs_term)

(* Trend figures from the tables' memoized simulations: the Table 6
   sweep as sparklines and the 2KB design point as bar charts, natural
   vs optimized. *)
let print_figures ctx =
  let pct v = Printf.sprintf "%.2f%%" (100. *. v) in
  print_string
    (Report.Chart.sparklines ~format:pct
       ~title:
         "Figure A: miss ratio vs cache size (direct-mapped, 64B blocks, \
          optimized layout; glyph ramp ' .:-=+*#@' scaled to the worst \
          point)"
       ~points:[ "8K"; "4K"; "2K"; "1K"; "0.5K" ]
       (List.map
          (fun (r : Experiments.Sweep.row) ->
            (r.name, List.map (fun c -> c.Experiments.Sweep.miss) r.cells))
          (Experiments.Table6.compute ctx)));
  print_newline ();
  let ablation = Experiments.Ablation.compute ctx in
  let bars title value =
    print_string
      (Report.Chart.bars ~format:pct ~title
         (List.map
            (fun (r : Experiments.Ablation.row) -> (r.name, value r))
            ablation))
  in
  bars "Figure B: 2KB/64B miss ratio, natural layout (pre-inlining baseline)"
    (fun r -> r.baseline);
  print_newline ();
  bars "Figure C: 2KB/64B miss ratio, full placement pipeline" (fun r ->
      r.full)

(* impact all *)
let all_cmd =
  let run names scale validate obs jobs =
    with_telemetry obs @@ fun () ->
    Placement.Pool.with_default jobs @@ fun () ->
    let ctx = Experiments.Context.create ~scale ?names () in
    let outcomes =
      List.map
        (fun spec ->
          let o = Experiments.Runner.run_spec ctx spec in
          print_string (Report.Table.render o.Experiments.Runner.table);
          print_newline ();
          o)
        Experiments.Runner.all
    in
    print_figures ctx;
    Option.iter (fun p -> write_json_report p ~names outcomes) obs.json_out;
    run_validation validate ctx
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table, then Figures A-C")
    Term.(
      const run $ bench_names_arg $ scale_arg $ validate_arg $ obs_term
      $ jobs_term)

(* impact run BENCH *)
let run_cmd =
  let bench_arg =
    let doc = "Benchmark name." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let show_output =
    let doc = "Print the program's stream-0 output." in
    Arg.(value & flag & info [ "output" ] ~doc)
  in
  let run name show =
    let b = Workloads.Registry.find name in
    let p = Workloads.Bench.program b in
    let r = Vm.Interp.run p (Workloads.Bench.trace_input b) in
    Printf.printf
      "%s: %d dynamic instructions, %d blocks, %d calls, %d branches, \
       return value %d\n"
      name r.Vm.Interp.dyn_insns r.Vm.Interp.dyn_blocks r.Vm.Interp.dyn_calls
      r.Vm.Interp.dyn_branches r.Vm.Interp.return_value;
    if show then print_string (Vm.Io.output r.Vm.Interp.io 0)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a benchmark on its trace input")
    Term.(const run $ bench_arg $ show_output)

(* impact pipeline BENCH *)
let pipeline_cmd =
  let bench_arg =
    let doc = "Benchmark name." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let run name =
    let b = Workloads.Registry.find name in
    let p =
      Placement.Pipeline.run (Workloads.Bench.program b)
        ~inputs:(Workloads.Bench.profile_inputs b)
    in
    let ir = p.Placement.Pipeline.inline_report in
    Printf.printf "benchmark           %s\n" name;
    Printf.printf "functions           %d\n"
      (Array.length p.Placement.Pipeline.program.Ir.Prog.funcs);
    Printf.printf "inlined sites       %d (in %d rounds)\n"
      ir.Placement.Inline.sites_inlined ir.Placement.Inline.rounds_used;
    Printf.printf "static code         %d -> %d insns (%+.1f%%)\n"
      ir.Placement.Inline.insns_before ir.Placement.Inline.insns_after
      (100. *. Placement.Inline.code_increase ir);
    Printf.printf "total bytes         %d\n"
      p.Placement.Pipeline.optimized.Placement.Address_map.total_bytes;
    Printf.printf "effective bytes     %d\n"
      p.Placement.Pipeline.optimized.Placement.Address_map.effective_bytes;
    Printf.printf "function order      %s\n"
      (String.concat " "
         (List.map
            (fun fid ->
              p.Placement.Pipeline.program.Ir.Prog.funcs.(fid).Ir.Prog.name)
            (Array.to_list p.Placement.Pipeline.global.Placement.Global_layout.order)));
    Array.iteri
      (fun fid sel ->
        let f = p.Placement.Pipeline.program.Ir.Prog.funcs.(fid) in
        let lay = p.Placement.Pipeline.layouts.(fid) in
        Printf.printf "  %-24s %3d blocks  %3d traces  %3d active blocks\n"
          f.Ir.Prog.name (Array.length f.Ir.Prog.blocks)
          (Array.length sel.Placement.Trace_select.traces)
          lay.Placement.Func_layout.active_blocks)
      p.Placement.Pipeline.selections
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Show placement pipeline details for a benchmark")
    Term.(const run $ bench_arg)

(* impact simulate BENCH --size --block --assoc --fill --layout *)
let simulate_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name.")
  in
  let layout_arg =
    let doc =
      Printf.sprintf "Layout strategy: %s (`optimized' = impact)."
        (String.concat " | " (Placement.Strategy.ids ()))
    in
    Arg.(value & opt string "impact" & info [ "layout" ] ~doc)
  in
  let run name config layout =
    let ctx = Experiments.Context.create ~names:[ name ] () in
    let e = Experiments.Context.find ctx name in
    let strategy =
      let id = if layout = "optimized" then "impact" else layout in
      try Placement.Strategy.find id
      with Placement.Strategy.Unknown_strategy _ ->
        failwith
          (Printf.sprintf "bad --layout (%s)"
             (String.concat " | " (Placement.Strategy.ids ())))
    in
    let map = Experiments.Context.strategy_map e strategy in
    let r =
      Experiments.Context.simulate e config map (Experiments.Context.trace e)
    in
    Printf.printf "%s on %s (%s layout)\n" name
      (Icache.Config.describe config)
      strategy.Placement.Strategy.id;
    Printf.printf "  accesses        %d\n" r.Sim.Driver.accesses;
    Printf.printf "  misses          %d\n" r.Sim.Driver.misses;
    Printf.printf "  miss ratio      %s\n"
      (Report.Fmtutil.pct ~digits:3 r.Sim.Driver.miss_ratio);
    Printf.printf "  traffic ratio   %s\n"
      (Report.Fmtutil.pct ~digits:3 r.Sim.Driver.traffic_ratio);
    Printf.printf "  avg.fetch       %.1f words/miss\n" r.Sim.Driver.avg_fetch_words;
    Printf.printf "  avg.exec        %.1f insns/run\n" r.Sim.Driver.avg_exec_insns;
    Printf.printf "  eff. access     %.3f cyc (blocking) / %.3f (streaming) / %.3f (partial)\n"
      r.Sim.Driver.eat_blocking r.Sim.Driver.eat_streaming
      r.Sim.Driver.eat_streaming_partial
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one cache configuration on a benchmark")
    Term.(
      const run $ bench_arg
      $ geometry_term ~with_assoc:true ~with_fill:true ()
      $ layout_arg)

(* impact estimate BENCH *)
let estimate_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name.")
  in
  let run name config =
    let ctx = Experiments.Context.create ~names:[ name ] () in
    let e = Experiments.Context.find ctx name in
    let est =
      Sim.Estimate.of_pipeline config (Experiments.Context.pipeline e)
    in
    let sim =
      Experiments.Context.simulate e config
        (Experiments.Context.optimized_map e)
        (Experiments.Context.trace e)
    in
    Printf.printf "%s at %s\n" name (Icache.Config.describe config);
    Printf.printf "  estimated (profile only)  %s  (%d compulsory + %d conflict)\n"
      (Report.Fmtutil.pct ~digits:3 est.Sim.Estimate.est_miss_ratio)
      est.Sim.Estimate.compulsory est.Sim.Estimate.conflict;
    Printf.printf "  simulated (trace driven)  %s\n"
      (Report.Fmtutil.pct ~digits:3 sim.Sim.Driver.miss_ratio)
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Profile-only analytical miss estimate vs trace-driven simulation")
    Term.(const run $ bench_arg $ geometry_term ())

(* impact lint [-b BENCH] [--strategy S|all] [--format text|json]
   [--fail-on warn|error] — the static layout linter: no trace, no
   simulation, just the CFG, the profile weights, the address map and
   the cache geometry.  `--strategy all' sweeps the registry and ranks
   strategies by static conflict score. *)
let lint_cmd =
  let strategy_arg =
    let doc =
      Printf.sprintf
        "Layout strategy to lint: %s, or $(b,all) to sweep the registry \
         and rank strategies by static score."
        (String.concat " | " (Placement.Strategy.ids ()))
    in
    Arg.(value & opt string "impact" & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(
      value
      & opt (Arg.enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let fail_on_arg =
    let doc =
      "Severity that fails the run (exit 18): $(b,error) (default) or \
       $(b,warn) (any finding)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("error", `Error); ("warn", `Warn) ]) `Error
      & info [ "fail-on" ] ~docv:"SEV" ~doc)
  in
  let max_findings_arg =
    let doc =
      "Cap the findings printed per benchmark/strategy in text format \
       (0 = unlimited); the summary always counts all of them."
    in
    Arg.(value & opt int 25 & info [ "max-findings" ] ~docv:"N" ~doc)
  in
  let min_prob_arg =
    let doc =
      "Hot-arc threshold in [0, 1]: an arc is hot when it carries at least \
       this fraction of both endpoint weights (default: the \
       trace-selection MIN_PROB)."
    in
    (* A probability: NaN and values outside [0, 1] are usage errors. *)
    let probability =
      let parse s =
        match float_of_string_opt s with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok p
        | _ ->
          Error
            (Printf.sprintf "invalid value '%s', expected a number in [0, 1]"
               s)
      in
      Arg.conv' (parse, Format.pp_print_float)
    in
    Arg.(
      value
      & opt probability Placement.Trace_select.default_min_prob
      & info [ "min-prob" ] ~docv:"P" ~doc)
  in
  let run names strategy format fail_on max_findings min_prob obs jobs =
    with_telemetry obs @@ fun () ->
    Placement.Pool.with_default jobs @@ fun () ->
    let ctx = Experiments.Context.create ?names () in
    let results =
      List.concat
        (Placement.Pool.map_default
           (fun e ->
             if strategy = "all" then Experiments.Lint_exp.sweep ~min_prob e
             else
               [
                 Experiments.Lint_exp.lint_entry ~min_prob e
                   (Placement.Strategy.find strategy);
               ])
           ctx)
    in
    (match format with
    | `Json -> print_endline
        (Obs.Json.to_string (Experiments.Lint_exp.report_json ~results))
    | `Text ->
      List.iter
        (fun (r : Experiments.Lint_exp.result) ->
          print_endline (Experiments.Lint_exp.summary r);
          let findings = r.Experiments.Lint_exp.report.Analysis.Lint.findings in
          let shown =
            if max_findings <= 0 then findings
            else List.filteri (fun i _ -> i < max_findings) findings
          in
          List.iter
            (fun (f : Analysis.Lint.finding) ->
              Printf.printf "  [%s] %s\n" f.Analysis.Lint.pass
                (Ir.Diag.to_string f.Analysis.Lint.diag))
            shown;
          let hidden = List.length findings - List.length shown in
          if hidden > 0 then
            Printf.printf "  ... %d more finding(s) (raise --max-findings)\n"
              hidden)
        results;
      if strategy = "all" then
        List.iter
          (fun e ->
            let bench = Experiments.Context.name e in
            let mine =
              List.filter
                (fun (r : Experiments.Lint_exp.result) ->
                  r.Experiments.Lint_exp.bench = bench)
                results
            in
            print_newline ();
            print_string
              (Report.Table.render
                 (Experiments.Lint_exp.ranking_table bench mine)))
          (Experiments.Context.entries ctx));
    Option.iter
      (fun p ->
        Obs.Json.to_file p (Experiments.Lint_exp.report_json ~results))
      obs.json_out;
    (* Deterministic exit: the first threshold-crossing finding decides
       (stage Lint -> exit 18); a clean run exits 0. *)
    let failing =
      List.concat_map
        (fun (r : Experiments.Lint_exp.result) ->
          match fail_on with
          | `Error -> Analysis.Lint.errors r.Experiments.Lint_exp.report
          | `Warn ->
            List.map
              (fun (f : Analysis.Lint.finding) -> f.Analysis.Lint.diag)
              r.Experiments.Lint_exp.report.Analysis.Lint.findings)
        results
    in
    match failing with [] -> () | d :: _ -> raise (Ir.Diag.Fail d)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint layouts (no simulation): dead blocks, broken \
          hot arcs, split loops, cache-set conflicts, profile flow")
    Term.(
      const run $ bench_names_arg $ strategy_arg $ format_arg $ fail_on_arg
      $ max_findings_arg $ min_prob_arg $ obs_term $ jobs_term)

(* impact absint [-b BENCH] [--strategy S|all] [--size --block --assoc]
   [--format text|json] — abstract interpretation of
   cache states: per-block always-hit / always-miss / first-miss
   classification and a certified miss-count interval under the profile
   weights.  Like lint, this path never records a trace and never
   simulates. *)
let absint_cmd =
  let strategy_arg =
    let doc =
      Printf.sprintf
        "Layout strategy to analyze: %s, or $(b,all) (default) for every \
         registered strategy."
        (String.concat " | " (Placement.Strategy.ids ()))
    in
    Arg.(value & opt string "all" & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,text) (default) or $(b,json)." in
    Arg.(
      value
      & opt (Arg.enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run names strategy config format obs jobs =
    with_telemetry obs @@ fun () ->
    Placement.Pool.with_default jobs @@ fun () ->
    let strategies =
      if strategy = "all" then None
      else Some [ Placement.Strategy.find strategy ]
    in
    let ctx = Experiments.Context.create ?names () in
    let results =
      Experiments.Absint_exp.sweep ~config ?strategies ctx
    in
    (match format with
    | `Json ->
      print_endline
        (Obs.Json.to_string (Experiments.Absint_exp.report_json ~results))
    | `Text ->
      List.iter
        (fun r -> print_endline (Experiments.Absint_exp.summary r))
        results);
    Option.iter
      (fun p ->
        Obs.Json.to_file p (Experiments.Absint_exp.report_json ~results))
      obs.json_out
  in
  Cmd.v
    (Cmd.info "absint"
       ~doc:
         "Certified cache-miss bounds by abstract interpretation (no \
          simulation): must/may/persistence domains over the CFG and \
          address map")
    Term.(
      const run $ bench_names_arg $ strategy_arg
      $ geometry_term ~with_assoc:true ()
      $ format_arg $ obs_term $ jobs_term)

let main_cmd =
  let doc =
    "IMPACT-I instruction placement reproduction (Hwu & Chang, ISCA 1989)"
  in
  Cmd.group (Cmd.info "impact" ~doc)
    [
      list_cmd; table_cmd; all_cmd; run_cmd; pipeline_cmd; simulate_cmd;
      estimate_cmd; lint_cmd; absint_cmd;
    ]

let () = Cli.exit_with (fun () -> Cmd.eval ~catch:false main_cmd)
