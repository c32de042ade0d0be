(* The `tables` workload: the reproducer's path.  Set-up builds the
   pipelines and traces of a fixed subset of programs; each timed pass
   regenerates every [Experiments.Runner.all] table for that subset at
   -j 2 through the [Placement.Pool], starting from empty simulation
   memos and strategy maps.  The seed orders the tables. *)

open Util

(* Small and large code (cmp, tar) and a short trace (tee). *)
let programs = [ "cmp"; "tee"; "tar" ]
let lanes = 2

let setup () =
  let ctx = Experiments.Context.create ~names:programs () in
  List.iter
    (fun e ->
      ignore (Experiments.Context.pipeline e);
      ignore (Experiments.Context.pipeline_noinline e);
      ignore (Experiments.Context.trace e);
      ignore (Experiments.Context.original_trace e);
      ignore (Experiments.Context.original_map e))
    ctx;
  ctx

(* The set-up's pipelines and traces with every memo emptied. *)
let fresh (ctx : Experiments.Context.t) : Experiments.Context.t =
  List.map
    (fun (e : Experiments.Context.entry) ->
      {
        e with
        lock = Mutex.create ();
        memo_tick = 0;
        memo_evicted = 0;
        strategy_maps = [];
        warnings = [];
        scaled_maps = [];
        map_ids = [];
        trace_ids = [];
        sim_cache = Hashtbl.create 64;
      })
    ctx

let pass rng ctx =
  let ctx = fresh ctx in
  List.map (Experiments.Runner.run_spec ctx) (shuffle rng Experiments.Runner.all)

(* One golden file per table: golden/tables/t<id>.txt. *)
let golden_dir = "perfbench/golden/tables"
let golden_path id = Filename.concat golden_dir ("t" ^ id ^ ".txt")
let render (o : Experiments.Runner.outcome) = Report.Table.render o.table

let load_golden () =
  List.map
    (fun (s : Experiments.Runner.spec) ->
      (s.id, In_channel.with_open_text (golden_path s.id) In_channel.input_all))
    Experiments.Runner.all

let check golden outcomes (a, f) =
  List.fold_left
    (fun (a, f) (o : Experiments.Runner.outcome) ->
      if List.assoc o.spec.id golden = render o then (a + 1, f)
      else begin
        mismatch "tables t%s: rendered table differs from golden" o.spec.id;
        (a + 1, f + 1)
      end)
    (a, f) outcomes

let passes ~seed ~seconds ctx golden =
  let rng = Workloads.Rng.create seed in
  let counts = ref (0, 0) in
  let ps =
    Util.passes ~label:"tables" ~seconds
      ~keep:(fun outcomes _ ->
        counts := check golden outcomes !counts;
        outcomes)
      (fun () -> pass rng ctx)
  in
  (ps, !counts)

let with_pool f =
  let pool = Placement.Pool.create lanes in
  Placement.Pool.set_default (Some pool);
  Fun.protect
    ~finally:(fun () ->
      Placement.Pool.set_default None;
      Placement.Pool.shutdown pool)
    f

let run ~seed ~seconds =
  let golden = load_golden () in
  let ctx, setup_s = repeat_setup ~reps:3 setup in
  let ps, (attempted, failed) = with_pool (fun () -> passes ~seed ~seconds ctx golden) in
  ( attempted,
    failed,
    [
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric "work_s" "s" (median (List.map fst ps));
    ] )

let trace_ratio ctx =
  let raw, stored =
    List.fold_left
      (fun (r, s) e ->
        List.fold_left
          (fun (r, s) t ->
            let st = Sim.Trace.stats t in
            (r + st.Sim.Trace.st_raw_bytes, s + st.st_stored_bytes))
          (r, s)
          [ Experiments.Context.trace e; Experiments.Context.original_trace e ])
      (0, 0) ctx
  in
  float raw /. float stored

(* The traced run also traces set-up, where the VM, the pipeline and
   trace recording run for this workload. *)
let run_traced ~seed ~seconds ~set ~add =
  let golden = load_golden () in
  Obs.Metrics.set_enabled true;
  Obs.Span.set_enabled true;
  let ctx = Obs.Span.with_ ~stage:"perfbench.setup" setup in
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let _, setup_other, setup_busy = Spans.drain add in
  set "sim.trace_ratio" (trace_ratio ctx);
  set "vm.blocks"
    (float
       (List.fold_left
          (fun acc e ->
            acc
            + Compile_wl.profiled_blocks (Experiments.Context.pipeline e)
            + Compile_wl.profiled_blocks (Experiments.Context.pipeline_noinline e))
          0 ctx));
  with_pool @@ fun () ->
  let ps, counts = passes ~seed ~seconds ctx golden in
  List.iter
    (fun (o : Experiments.Runner.outcome) ->
      set ("experiments.t" ^ o.spec.id ^ "_s")
        (median
           (List.map
              (fun (_, os) ->
                (List.find
                   (fun (o' : Experiments.Runner.outcome) -> o'.spec.id = o.spec.id)
                   os)
                  .wall_seconds)
              ps)))
    (snd (List.hd ps));
  Obs.Metrics.reset ();
  let pairs = 4 in
  let runs, overhead, other, busy, traced_s =
    Spans.traced_pairs ~pairs ~add (fun i -> pass (Workloads.Rng.create (seed + i)) ctx)
  in
  let attempted, failed = List.fold_left (fun acc os -> check golden os acc) counts runs in
  set "other.share" ((setup_other +. other) /. (setup_busy +. busy));
  set "pool.busy_ratio" (busy /. (float lanes *. traced_s));
  set "obs.trace_overhead" overhead;
  Metrics_file.absint_and_sim ~runs:pairs (Metrics_file.parse (Obs.Metrics.dump ())) set;
  (attempted, failed)
