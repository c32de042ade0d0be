(* Parallel execution: the domain pool's ordering/exception contract,
   the default-pool entry points, and serial-vs-parallel bit-identity
   of every consumer grain — table rows, partitioned config sweeps,
   fuzz campaigns — plus the exactly-once guarantee for
   strategy-fallback accounting and the domain safety of the Obs
   layer. *)

let with_pool n f =
  let pool = Placement.Pool.create n in
  Fun.protect
    ~finally:(fun () -> Placement.Pool.shutdown pool)
    (fun () -> f pool)

(* ---------------- pool contract ---------------- *)

let prop_map_order =
  QCheck.Test.make ~name:"Pool.map = List.map (order preserved)" ~count:25
    QCheck.(list_of_size Gen.(int_range 0 60) small_nat)
    (fun xs ->
      with_pool 3 (fun pool ->
          let f x = (x * 2) + 1 in
          Placement.Pool.map pool f xs = List.map f xs))

(* Tasks raise [Ir.Diag.Fail] carrying their index; whatever subset
   fails and whichever domain ran it, the caller sees the lowest-index
   task's exception with its original payload. *)
let prop_map_exception =
  QCheck.Test.make
    ~name:"Pool.map re-raises the lowest-index failure, payload intact"
    ~count:50
    QCheck.(make ~print:string_of_int Gen.(int_bound 1023))
    (fun mask ->
      with_pool 3 (fun pool ->
          let n = 10 in
          let fails i = mask land (1 lsl i) <> 0 in
          let f i =
            if fails i then
              raise
                (Ir.Diag.Fail
                   (Ir.Diag.make ~stage:Ir.Diag.Strategy
                      ~func:(string_of_int i) "task %d failed" i))
            else i
          in
          let expect_first =
            List.find_opt fails (List.init n (fun i -> i))
          in
          match
            (expect_first, Placement.Pool.map pool f (List.init n (fun i -> i)))
          with
          | None, ys -> ys = List.init n (fun i -> i)
          | Some _, _ -> false (* should have raised *)
          | exception Ir.Diag.Fail d -> (
            match expect_first with
            | Some i -> d.Ir.Diag.func = Some (string_of_int i)
            | None -> false)))

(* [map_default] is [List.map] whatever the default: none, a 1-lane
   pool (which spawns no domain) or a 3-lane pool. *)
let prop_map_default =
  QCheck.Test.make ~name:"Pool.map_default = List.map at any default"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 0 60) small_nat)
    (fun xs ->
      let f x = (x * 2) + 1 in
      let expected = List.map f xs in
      Placement.Pool.default () = None
      && Placement.Pool.map_default f xs = expected
      && Placement.Pool.with_default 1 (fun () ->
             Placement.Pool.map_default f xs)
         = expected
      && Placement.Pool.with_default 3 (fun () ->
             Placement.Pool.map_default f xs)
         = expected)

exception Inner_failed

(* A [with_default] whose body raises, nested inside another: the outer
   default is back in place and the inner pool is shut down.  Each
   round would otherwise leak two worker domains, and 70 rounds leak
   past the runtime's 128-domain cap, so a missing shutdown fails the
   next spawn. *)
let with_default_restores () =
  Placement.Pool.with_default 2 (fun () ->
      let outer = Placement.Pool.default () in
      for _ = 1 to 70 do
        match
          Placement.Pool.with_default 3 (fun () ->
              Alcotest.(check int) "inner pool installed" 3
                (Option.fold ~none:0 ~some:Placement.Pool.lanes
                   (Placement.Pool.default ()));
              raise Inner_failed)
        with
        | () -> Alcotest.fail "with_default swallowed the exception"
        | exception Inner_failed ->
          Alcotest.(check bool) "outer default restored" true
            (Placement.Pool.default () == outer)
      done);
  Alcotest.(check bool) "no default after the outermost" true
    (Placement.Pool.default () = None)

(* A pool task that submits its own job to the same pool must complete
   (the submitter helps run its job), whatever the lane count. *)
let nested_map () =
  with_pool 2 (fun pool ->
      let inner i =
        Placement.Pool.map pool (fun j -> (i * 10) + j) [ 0; 1; 2; 3 ]
      in
      let rows = Placement.Pool.map pool inner [ 0; 1; 2; 3 ] in
      Alcotest.(check (list (list int)))
        "nested results"
        (List.map (fun i -> List.map (fun j -> (i * 10) + j) [ 0; 1; 2; 3 ])
           [ 0; 1; 2; 3 ])
        rows)

(* ---------------- serial vs parallel bit-identity ---------------- *)

let render_tables ids names =
  let ctx = Experiments.Context.create ~names () in
  List.map
    (fun id ->
      let spec = Experiments.Runner.find id in
      Report.Table.render
        (Experiments.Runner.run_spec ctx spec).Experiments.Runner.table)
    ids

(* The same tables rendered on the serial path and under a 4-lane
   default pool must be byte-identical strings. *)
let tables_bit_identical () =
  let ids = [ "6"; "17" ] and names = [ "cmp"; "wc" ] in
  let serial = render_tables ids names in
  let parallel =
    Placement.Pool.with_default 4 (fun () -> render_tables ids names)
  in
  List.iter2
    (fun s p -> Alcotest.(check string) "rendered table" s p)
    serial parallel

(* Driver.simulate's per-configuration pool tasks over one shared span
   program concatenate back to the exact results of the serial sweep it
   runs with no default pool. *)
let driver_partition_identical () =
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let map = Experiments.Context.optimized_map e in
  let trace = Experiments.Context.trace e in
  let configs = Experiments.Table6.configs in
  let serial = Sim.Driver.simulate configs map trace in
  let parallel =
    Placement.Pool.with_default 4 (fun () ->
        Sim.Driver.simulate configs map trace)
  in
  Alcotest.(check bool) "results identical" true (serial = parallel)

(* A strategy that raises only on a syntactic property of the generated
   program, so a fuzz campaign finds a deterministic subset of seeds. *)
let selective_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "selective";
    title = "raises on programs whose entry has a multiple-of-3 blocks";
    layout =
      (fun f w ->
        if Array.length f.Ir.Prog.blocks mod 3 = 0 then
          failwith "selective boom"
        else Placement.Strategy.natural.Placement.Strategy.layout f w);
  }

(* Failures, reports and every log line agree between -j 1 and -j 3;
   60 seeds, so a progress line every 50 seeds would show. *)
let fuzz_parallel_identical () =
  let strategies = [ selective_strategy ] in
  let run jobs =
    let lines = ref [] in
    let log l = lines := l :: !lines in
    let failures =
      Placement.Pool.with_default jobs (fun () ->
          Experiments.Fuzz.run ~size:60 ~strategies ~log ~first_seed:1
            ~count:60 ())
    in
    (failures, List.rev !lines)
  in
  let serial, serial_log = run 1 in
  let parallel, parallel_log = run 3 in
  Alcotest.(check (list string)) "identical log" serial_log parallel_log;
  Alcotest.(check (list int))
    "same failing seeds"
    (List.map (fun f -> f.Experiments.Fuzz.seed) serial)
    (List.map (fun f -> f.Experiments.Fuzz.seed) parallel);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical failure report"
        (Fmt.str "%a" Experiments.Fuzz.report_failure a)
        (Fmt.str "%a" Experiments.Fuzz.report_failure b))
    serial parallel

(* ---------------- exactly-once fallback accounting ---------------- *)

let raising_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "explosive-par";
    title = "always raises (deliberately broken)";
    layout = (fun _ _ -> failwith "boom");
  }

(* Four concurrent callers race [strategy_map] on one entry with a
   raising strategy: all must get the same fallback map, and the
   warning and the fallback counter must record exactly once. *)
let concurrent_fallback_once () =
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let metrics0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.value Experiments.Context.strategy_fallbacks in
  let maps =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled metrics0)
      (fun () ->
        with_pool 2 (fun pool ->
            Placement.Pool.map pool
              (fun _ -> Experiments.Context.strategy_map e raising_strategy)
              [ 0; 1; 2; 3 ]))
  in
  let natural = Experiments.Context.natural_map e in
  List.iter
    (fun m ->
      Alcotest.(check bool) "natural map substituted" true (m == natural))
    maps;
  Alcotest.(check bool) "fell back" true
    (Experiments.Context.fell_back e "explosive-par");
  Alcotest.(check int) "exactly one warning" 1
    (List.length (Experiments.Context.warnings e));
  Alcotest.(check int) "fallback counter bumped once" (before + 1)
    (Obs.Metrics.value Experiments.Context.strategy_fallbacks)

(* ---------------- Obs layer domain safety ---------------- *)

let spans_across_domains () =
  let spans0 = Obs.Span.enabled () in
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled spans0)
    (fun () ->
      let names =
        with_pool 2 (fun pool ->
            Placement.Pool.map pool
              (fun i ->
                Obs.Span.with_ ~stage:(Printf.sprintf "par-span-%d" i)
                  (fun () -> i))
              [ 0; 1; 2; 3 ])
      in
      Alcotest.(check (list int)) "results" [ 0; 1; 2; 3 ] names;
      let evs =
        List.filter
          (fun (e : Obs.Span.event) ->
            String.length e.Obs.Span.name >= 8
            && String.sub e.Obs.Span.name 0 8 = "par-span")
          (Obs.Span.events ())
      in
      Alcotest.(check int) "all 4 spans visible" 4 (List.length evs);
      let seqs = List.map (fun (e : Obs.Span.event) -> e.Obs.Span.seq) evs in
      Alcotest.(check int) "sequence numbers distinct" 4
        (List.length (List.sort_uniq compare seqs)))

let counters_across_domains () =
  let c = Obs.Metrics.counter "test.parallel.bumps" in
  let metrics0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let before = Obs.Metrics.value c in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled metrics0)
    (fun () ->
      with_pool 3 (fun pool ->
          ignore
            (Placement.Pool.map pool
               (fun _ -> Obs.Metrics.incr c)
               (List.init 200 (fun i -> i)))));
  Alcotest.(check int) "no lost increments" (before + 200)
    (Obs.Metrics.value c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_order;
    QCheck_alcotest.to_alcotest prop_map_exception;
    Alcotest.test_case "nested Pool.map completes" `Quick nested_map;
    Alcotest.test_case "tables bit-identical at -j 1 vs -j 4" `Slow
      tables_bit_identical;
    Alcotest.test_case "driver config partition identical" `Quick
      driver_partition_identical;
    Alcotest.test_case "fuzz campaign identical at -j 1 vs -j 3" `Slow
      fuzz_parallel_identical;
    Alcotest.test_case "concurrent strategy fallback records once" `Quick
      concurrent_fallback_once;
    Alcotest.test_case "spans from worker domains stitched" `Quick
      spans_across_domains;
    Alcotest.test_case "counter increments commute across domains" `Quick
      counters_across_domains;
    QCheck_alcotest.to_alcotest prop_map_default;
    Alcotest.test_case "with_default restores and shuts down on raise" `Quick
      with_default_restores;
  ]
