(* Differential layout fuzzer engine.

   One fuzz case: generate a seeded random mini-C program, lower it,
   run the whole placement pipeline on it, build the address map of
   every registered layout strategy, and check

   - the VM agrees with the matching interpreter
     ([Oracle.Matching_interp]) on the lowered program: outcome, counts,
     arc and call order, block stream, or the same fault and message;
     and again on half the fuel the full run used, where both must
     fault with the same out-of-fuel message;
   - [Vm.Profile]'s dense counters agree with the per-transfer profiler
     ([Oracle.Transfer_profile]): every count, every table in
     first-taken order;
   - under aggressive inlining thresholds, every round's call-site
     counts derived from the calling-context tree equal a VM pass over
     that round's program ([Oracle.Inline_rounds]);
   - every structural / flow / selection / layout / map invariant
     ([Placement.Validate], at [Full] level);
   - inline expansion preserved semantics (the original and inlined
     programs produce the same return value and output);
   - the static linter ([Analysis.Lint]) runs without crashing on every
     strategy's map and reports no error-severity finding (a statically
     unreachable block carrying profile weight, a flow violation);
   - the dynamic instruction count of the recorded block trace is the
     same under every strategy's map (layout invariance);
   - a cache simulation over each map accesses exactly that many
     instructions;
   - the span-program sweep every experiment uses ([Sim.Driver.simulate])
     agrees bit for bit with the word-granular reference
     ([Oracle.Word_sim]) on the stored trace under each map;

   - the abstract-interpretation cache bounds ([Analysis.Absint]) are
     sound against the simulated truth on small conflict-heavy
     geometries: no always-hit access ever misses, no always-miss
     access ever hits, a first-miss line misses at most once per
     tracked loop entry, and the simulated miss total lands inside the
     certified interval ([Oracle.Absint_soundness]).

   On failure the case is shrunk greedily ([Oracle.Gen.shrink]) while the
   first violation stays in the same stage — so the reproducer exhibits
   the original failure class, not some unrelated breakage introduced by
   the reduction — and reported with its seed, which regenerates the
   unshrunk program deterministically. *)

type failure = {
  seed : int;
  size : int;
  diags : Ir.Diag.t list;  (** violations of the generated program *)
  shrunk : Ir.Ast.program;  (** minimal reproducer *)
  shrunk_diags : Ir.Diag.t list;  (** violations it still exhibits *)
  shrink_steps : int;
}

let fuel = 50_000_000
let case_input = Vm.Io.input []

(* Telemetry: volume and outcome of fuzzing campaigns. *)
let seeds_checked =
  Obs.Metrics.counter "fuzz.seeds" ~help:"generated programs checked"

let failures_found =
  Obs.Metrics.counter "fuzz.failures" ~help:"seeds that broke an invariant"

let shrink_steps_taken =
  Obs.Metrics.counter "fuzz.shrink_steps"
    ~help:"successful shrink steps over all failures"

(* Geometry is irrelevant to the access-count cross-check; a small cache
   keeps a 200-case smoke run fast. *)
let sim_config = Icache.Config.make ~size:512 ~block:16 ()

let catching stage f =
  try Ok (f ()) with
  | Ir.Diag.Fail d -> Error [ d ]
  | Vm.Interp.Fault m -> Error [ Ir.Diag.make ~stage "VM fault: %s" m ]
  | exn -> Error [ Ir.Diag.make ~stage "%s" (Printexc.to_string exn) ]

(* The VM, its profiler and the inline rounds' derived counts against
   their oracles on the lowered program.  A run that faults must fault
   the same way in both interpreters; it is not profiled, and the
   pipeline stage reports the fault.  A run that completes is run again
   on half the instructions it used, where both interpreters must run
   out of fuel the same way. *)
let engine_diags prog =
  let differ fmt =
    Fmt.kstr (fun m -> [ Ir.Diag.make ~stage:Ir.Diag.Profile "%s" m ]) fmt
  in
  match Oracle.Matching_interp.same_as_oracle ~fuel prog case_input with
  | Error what -> differ "VM and matching interpreter differ: %s" what
  | Ok (Error _) -> []
  | Ok (Ok run) -> (
    let used = List.hd run.Oracle.Matching_interp.totals in
    match
      Oracle.Matching_interp.same_as_oracle ~fuel:(used / 2) prog case_input
    with
    | Error what ->
      differ "VM and matching interpreter differ on %d of %d instructions' \
              fuel: %s"
        (used / 2) used what
    | Ok (Ok _) ->
      differ "the VM completed on %d of the %d instructions it needs"
        (used / 2) used
    | Ok (Error _) -> (
      match
        catching Ir.Diag.Profile (fun () ->
            ( Oracle.Transfer_profile.same_as_oracle prog [ case_input ],
              Oracle.Inline_rounds.same_as_oracle
                ~config:Oracle.Inline_rounds.aggressive prog [ case_input ] ))
      with
      | Error ds -> ds
      | Ok (Error what, _) ->
        differ "Vm.Profile and the per-transfer profiler differ: %s" what
      | Ok (Ok (), Error what) ->
        differ "derived inline counts and the VM's differ at %s" what
      | Ok (Ok (), Ok ()) -> []))

(* All violations exhibited by one generated program, or [] if the whole
   pipeline holds up.  Stages are checked in order and a failing stage
   short-circuits the rest (its artifacts would be garbage anyway). *)
let check_program ?(strategies = Placement.Strategy.all)
    (ast : Ir.Ast.program) : Ir.Diag.t list =
  match catching Ir.Diag.Lower (fun () -> Ir.Lower.program ast) with
  | Error ds -> ds
  | Ok prog -> (
    (* A structurally valid program is run against the engine oracles
       before the pipeline profiles it. *)
    let early =
      match Ir.Check.diags prog with
      | [] -> engine_diags prog
      | structural -> structural
    in
    match early with
    | _ :: _ -> early
    | [] -> (
      match
        catching Ir.Diag.Profile (fun () ->
            Placement.Pipeline.run prog ~inputs:[ case_input ])
      with
      | Error ds -> ds
      | Ok p -> (
        let pipe =
          Placement.Validate.pipeline ~level:Placement.Validate.Full p
        in
        match Ir.Diag.errors pipe with
        | _ :: _ -> pipe
        | [] -> (
          (* Inline expansion must not change observable behavior. *)
          let semantics =
            match
              catching Ir.Diag.Structure (fun () ->
                  (Oracle.Gen.observe p.Placement.Pipeline.original,
                   Oracle.Gen.observe p.Placement.Pipeline.program))
            with
            | Error ds -> ds
            | Ok ((r0, o0), (r1, o1)) ->
              if r0 = r1 && o0 = o1 then []
              else
                [
                  Ir.Diag.make ~stage:Ir.Diag.Structure
                    "inline expansion changed semantics: return %d, %d \
                     output bytes vs return %d, %d output bytes"
                    r0 (String.length o0) r1 (String.length o1);
                ]
          in
          match semantics with
          | _ :: _ -> semantics
          | [] -> (
            (* Per-strategy maps; in the fuzzer a raising strategy is a
               hard failure, not a degradation. *)
            let maps, strategy_diags =
              List.fold_left
                (fun (maps, diags) (s : Placement.Strategy.t) ->
                  match
                    catching Ir.Diag.Strategy (fun () ->
                        Placement.Pipeline.map_for p s)
                  with
                  | Ok m -> ((s, m) :: maps, diags)
                  | Error ds ->
                    ( maps,
                      diags
                      @ List.map
                          (fun d ->
                            { d with
                              Ir.Diag.strategy =
                                Some s.Placement.Strategy.id })
                          ds ))
                ([], []) strategies
            in
            let maps = List.rev maps in
            let weights fid =
              Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile
                fid
            in
            let map_diags =
              List.concat_map
                (fun (s, m) ->
                  Placement.Validate.map ~strategy:s
                    ~program:p.Placement.Pipeline.program ~weights m)
                maps
            in
            match strategy_diags @ map_diags with
            | _ :: _ as ds -> ds
            | [] -> (
              (* The static linter must survive every generated program
                 under every strategy map, and its error-severity
                 findings (profile weight on a statically dead block,
                 flow-conservation violations) are pipeline bugs: the
                 simplifier sweeps unreachable blocks, so a weighted one
                 means the CFG and the profile disagree. *)
              let lint_diags =
                List.concat_map
                  (fun ((s : Placement.Strategy.t), m) ->
                    match
                      catching Ir.Diag.Lint (fun () ->
                          Analysis.Lint.run
                            (Analysis.Lint.of_pipeline
                               ~strategy:s.Placement.Strategy.id p ~map:m
                               ~config:sim_config))
                    with
                    | Error ds -> ds
                    | Ok report -> Analysis.Lint.errors report)
                  maps
              in
              match lint_diags with
              | _ :: _ as ds -> ds
              | [] -> (
              match
                catching Ir.Diag.Simulation (fun () ->
                    Sim.Trace.record ~fuel p.Placement.Pipeline.program
                      case_input)
              with
              | Error ds -> ds
              | Ok trace ->
                let reference =
                  Sim.Trace.dyn_insns p.Placement.Pipeline.natural trace
                in
                List.concat_map
                  (fun ((s : Placement.Strategy.t), m) ->
                    let id = s.Placement.Strategy.id in
                    let tagged =
                      List.map (fun d -> { d with Ir.Diag.strategy = Some id })
                    in
                    let n = Sim.Trace.dyn_insns m trace in
                    if n <> reference then
                      [
                        Ir.Diag.make ~stage:Ir.Diag.Simulation ~strategy:id
                          "layout changed the dynamic instruction count: %d \
                           vs %d under the natural layout"
                          n reference;
                      ]
                    else
                      (* Engine differential: the word-granular reference
                         and the span-fused sweep must agree on every
                         result field under this strategy's addresses. *)
                      match
                        catching Ir.Diag.Simulation (fun () ->
                            ( Oracle.Word_sim.run sim_config m trace,
                              Sim.Driver.simulate [ sim_config ] m trace ))
                      with
                      | Error ds -> tagged ds
                      | Ok (r, _) when r.Sim.Driver.accesses <> n ->
                        [
                          Ir.Diag.make ~stage:Ir.Diag.Simulation ~strategy:id
                            "simulation accessed %d instructions but the \
                             trace holds %d"
                            r.Sim.Driver.accesses n;
                        ]
                      | Ok (r, [ fast ])
                        when Oracle.Word_sim.results_equal r fast -> (
                        (* Soundness oracle: replay the trace against the
                           abstract-interpretation claims on
                           conflict-forcing geometries. *)
                        match
                          catching Ir.Diag.Simulation (fun () ->
                              Oracle.Absint_soundness.check ~strategy:id
                                p.Placement.Pipeline.program m trace)
                        with
                        | Error ds -> tagged ds
                        | Ok ds -> ds)
                      | Ok _ ->
                        [
                          Ir.Diag.make ~stage:Ir.Diag.Simulation ~strategy:id
                            "span-fused simulation diverged from the \
                             word-granular reference under this map";
                        ])
                  maps)))))))

let first_error ds = match Ir.Diag.errors ds with d :: _ -> Some d | [] -> None

(* Shrink a seed already known to fail with [diags].  The seed
   regenerates the program deterministically, so detection and shrinking
   can run in different places (the parallel campaign detects on worker
   domains and shrinks serially, in seed order). *)
let shrink_failure ~size ?strategies seed diags : failure =
  let ast = Oracle.Gen.generate ~size seed in
  let d0 =
    match first_error diags with
    | Some d -> d
    | None -> invalid_arg "Fuzz.shrink_failure: no error-severity diagnostic"
  in
  (* Shrink while the first violation stays in the original stage, so
     the reduction cannot wander into an unrelated failure class. *)
  let still_fails p =
    match first_error (check_program ?strategies p) with
    | Some d -> d.Ir.Diag.stage = d0.Ir.Diag.stage
    | None -> false
  in
  let shrunk, shrink_steps = Oracle.Gen.shrink ast ~still_fails in
  {
    seed;
    size;
    diags;
    shrunk;
    shrunk_diags = check_program ?strategies shrunk;
    shrink_steps;
  }

(* Human-readable reproducer: the seed regenerates the program
   deterministically; the lowered IR of the shrunk case is printed when
   it still lowers (a Lower-stage failure has only the AST shape). *)
let report_failure ppf (f : failure) =
  Fmt.pf ppf "FAIL seed %d (size %d): %d violation(s)@." f.seed f.size
    (List.length (Ir.Diag.errors f.diags));
  List.iter (fun d -> Fmt.pf ppf "  %a@." Ir.Diag.pp d) f.diags;
  Fmt.pf ppf "minimal reproducer (%d shrink steps, %d function(s)):@."
    f.shrink_steps
    (List.length f.shrunk.Ir.Ast.funcs);
  List.iter (fun d -> Fmt.pf ppf "  %a@." Ir.Diag.pp d) f.shrunk_diags;
  (match catching Ir.Diag.Lower (fun () -> Ir.Lower.program f.shrunk) with
  | Ok prog -> Fmt.pf ppf "%a@." Ir.Pp.program prog
  | Error _ ->
    Fmt.pf ppf "  (does not lower; regenerate the AST with seed %d)@."
      f.seed);
  Fmt.pf ppf "reproduce with: fuzz --seed %d --count 1 --size %d@." f.seed
    f.size

(* Fuzz [count] consecutive seeds starting at [first_seed].  Detection
   fans out over the default pool (each seed's program is regenerated
   from the seed, so a task depends only on its seed); the failing seeds
   are then shrunk and reported serially in seed order, so the failure
   list, every report and the log lines are the same at any -j. *)
let run ?(size = 120) ?strategies ?(log = ignore) ~first_seed ~count () :
    failure list =
  let lanes =
    Option.fold ~none:1 ~some:Placement.Pool.lanes (Placement.Pool.default ())
  in
  Obs.Span.with_ ~stage:"fuzz"
    ~attrs:
      ([
         ("first_seed", string_of_int first_seed);
         ("count", string_of_int count);
       ]
      @ if lanes > 1 then [ ("lanes", string_of_int lanes) ] else [])
  @@ fun () ->
  let failing =
    Placement.Pool.map_default
      (fun seed ->
        Obs.Metrics.incr seeds_checked;
        let diags = check_program ?strategies (Oracle.Gen.generate ~size seed) in
        Option.map (fun _ -> (seed, diags)) (first_error diags))
      (List.init count (fun k -> first_seed + k))
  in
  let failures =
    List.filter_map
      (Option.map (fun (seed, diags) ->
           let f = shrink_failure ~size ?strategies seed diags in
           Obs.Metrics.incr failures_found;
           Obs.Metrics.incr ~by:f.shrink_steps shrink_steps_taken;
           log (Fmt.str "%a" report_failure f);
           f))
      failing
  in
  log
    (Fmt.str "checked %d/%d programs (seeds %d..%d), %d failure(s)" count
       count first_seed
       (first_seed + count - 1)
       (List.length failures));
  failures
