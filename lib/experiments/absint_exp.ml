(* E19: static cache-state bounds vs the heuristic estimate vs the
   simulated truth, plus the [impact absint] CLI backend and the
   fuzzer's soundness oracle.

   Three predictors for every (benchmark, strategy, config):

   - the paper-§5 heuristic ([Sim.Estimate], profile arithmetic);
   - the certified interval [lo, hi] from [Analysis.Absint], evaluated
     with exact block counts and loop-entry counts taken from the same
     trace the simulator replays, so "simulated inside [lo, hi]" is a
     soundness theorem and not a sampling accident;
   - the trace-driven simulation itself.

   The oracle replays a trace against a fresh cache and checks every
   per-access claim (always-hit never misses, always-miss never hits,
   first-miss at most once per scope entry) plus interval membership —
   the fuzzer runs it on every generated program. *)

open Analysis

let default_configs =
  [
    Icache.Config.make ~size:2048 ~block:64 ();
    Icache.Config.make ~size:8192 ~block:64 ();
    Icache.Config.make ~size:4096 ~block:64 ~assoc:(Ways 2) ();
  ]

let default_config = List.hd default_configs

(* ------------------------------------------------------------------ *)
(* Shared JSON pieces (schema impact.absint/v1)                        *)
(* ------------------------------------------------------------------ *)

let interval_json (iv : Absint.interval) =
  let ratio n =
    if iv.Absint.fetches = 0 then 0.
    else float_of_int n /. float_of_int iv.Absint.fetches
  in
  Obs.Json.Obj
    [
      ("lo", Obs.Json.Int iv.Absint.lo);
      ("hi", Obs.Json.Int iv.Absint.hi);
      ("accesses", Obs.Json.Int iv.Absint.accesses);
      ("fetches", Obs.Json.Int iv.Absint.fetches);
      ("miss_ratio_lo", Obs.Json.Float (ratio iv.Absint.lo));
      ("miss_ratio_hi", Obs.Json.Float (ratio iv.Absint.hi));
      ( "weighted",
        Obs.Json.Obj
          [
            ("always_hit", Obs.Json.Int iv.Absint.w_hit);
            ("always_miss", Obs.Json.Int iv.Absint.w_miss);
            ("first_miss", Obs.Json.Int iv.Absint.w_first);
            ("unclassified", Obs.Json.Int iv.Absint.w_unknown);
          ] );
    ]

let totals_json (tot : Absint.totals) =
  Obs.Json.Obj
    [
      ("always_hit", Obs.Json.Int tot.Absint.t_hit);
      ("always_miss", Obs.Json.Int tot.Absint.t_miss);
      ("first_miss", Obs.Json.Int tot.Absint.t_first);
      ("unclassified", Obs.Json.Int tot.Absint.t_unknown);
      ("accesses", Obs.Json.Int tot.Absint.t_accesses);
      ("blocks", Obs.Json.Int tot.Absint.t_blocks);
      ("blocks_classified", Obs.Json.Int tot.Absint.t_blocks_classified);
    ]

(* ------------------------------------------------------------------ *)
(* impact absint: simulation-free, profile-weighted                    *)
(* ------------------------------------------------------------------ *)

type result = {
  bench : string;
  strategy : Placement.Strategy.t;
  fell_back : bool;
  config : Icache.Config.t;
  totals : Absint.totals;
  certified : Absint.interval;  (* under the profile weights *)
  gated : string option;
  consistent : bool;
  scopes : int;
  must_iterations : int;
  may_iterations : int;
}

let analyze_entry ?max_iters ~config e (s : Placement.Strategy.t) : result =
  let id = s.Placement.Strategy.id in
  let p = Context.pipeline e in
  let map = Context.strategy_map e s in
  let prog = p.Placement.Pipeline.program in
  let profile = p.Placement.Pipeline.profile in
  let t = Absint.analyze ?max_iters config map prog in
  let certified =
    Absint.profile_interval t
      ~weights:(Placement.Weight.cfg_of_profile profile)
  in
  {
    bench = Context.name e;
    strategy = s;
    fell_back = Context.fell_back e id;
    config;
    totals = Absint.totals t;
    certified;
    gated = t.Absint.gated;
    consistent = t.Absint.consistent;
    scopes = Array.length t.Absint.scopes;
    must_iterations = t.Absint.must_iterations;
    may_iterations = t.Absint.may_iterations;
  }

(* Per-entry strategy sweeps fan out across the default pool, like the
   lint sweep; results come back in registry order either way. *)
let sweep ?max_iters ?(config = default_config)
    ?(strategies = Placement.Strategy.all) ctx =
  List.concat
  @@ Placement.Pool.map_default
       (fun e ->
         Obs.Span.with_ ~stage:"absint-exp"
           ~attrs:[ ("bench", Context.name e) ]
         @@ fun () ->
         List.map (fun s -> analyze_entry ?max_iters ~config e s) strategies)
       ctx

let strategy_cell r =
  let id = r.strategy.Placement.Strategy.id in
  if r.fell_back then id ^ " (fallback: natural)" else id

let summary r =
  let tot = r.totals in
  Printf.sprintf
    "%s/%s at %s: %d/%d blocks fully classified (AH=%d AM=%d FM=%d \
     UNK=%d)  certified misses [%d, %d] of %d weighted fetches%s"
    r.bench (strategy_cell r)
    (Icache.Config.describe r.config)
    tot.Absint.t_blocks_classified tot.Absint.t_blocks tot.Absint.t_hit
    tot.Absint.t_miss tot.Absint.t_first tot.Absint.t_unknown
    r.certified.Absint.lo r.certified.Absint.hi r.certified.Absint.fetches
    (match r.gated with
    | Some reason -> Printf.sprintf "  [gated: %s]" reason
    | None -> "")

let result_json r =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String r.bench);
      ("strategy", Obs.Json.String r.strategy.Placement.Strategy.id);
      ("fell_back", Obs.Json.Bool r.fell_back);
      ("config", Obs.Json.String (Icache.Config.describe r.config));
      ( "gated",
        match r.gated with
        | Some reason -> Obs.Json.String reason
        | None -> Obs.Json.Null );
      ("consistent", Obs.Json.Bool r.consistent);
      ("scopes", Obs.Json.Int r.scopes);
      ( "iterations",
        Obs.Json.Obj
          [
            ("must", Obs.Json.Int r.must_iterations);
            ("may", Obs.Json.Int r.may_iterations);
          ] );
      ("classes", totals_json r.totals);
      ("certified", interval_json r.certified);
    ]

let report_json ~results =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "impact.absint/v1");
      ("results", Obs.Json.List (List.map result_json results));
    ]

(* ------------------------------------------------------------------ *)
(* E19 table: bounds vs estimate vs simulation                         *)
(* ------------------------------------------------------------------ *)

type row = {
  r_bench : string;
  r_strategy : string;
  r_config : string;
  r_est : float;  (* heuristic miss-ratio estimate *)
  r_lo : float;  (* certified miss-ratio bounds *)
  r_hi : float;
  r_sim : float;  (* simulated miss ratio *)
  r_within : bool;  (* simulated misses inside [lo, hi] *)
  r_classified : string;  (* fully classified blocks / reachable *)
}

let compute ?(configs = default_configs)
    ?(strategies = Placement.Strategy.all) ctx =
  List.concat
  @@ Placement.Pool.map_default
       (fun e ->
         Obs.Span.with_ ~stage:"absint-exp"
           ~attrs:[ ("bench", Context.name e) ]
         @@ fun () ->
         let p = Context.pipeline e in
         let prog = p.Placement.Pipeline.program in
         let profile = p.Placement.Pipeline.profile in
         let trace = Context.trace e in
         (* Block and stay counts depend only on the program and the
            trace, so one walk serves every (strategy, config). *)
         let k =
           Obs.Span.with_ ~stage:"absint.track" @@ fun () ->
           let k = Absint.tracker prog in
           Sim.Trace.iter_blocks (Absint.track k) trace;
           k
         in
         List.concat_map
           (fun (s : Placement.Strategy.t) ->
             let id = s.Placement.Strategy.id in
             let map = Context.strategy_map e s in
             let est_of config =
               Sim.Estimate.estimate config map
                 ~block_weight:(Vm.Profile.block_weight profile)
                 ~func_entries:(Vm.Profile.func_weight profile)
             in
             (* One sweep simulates every geometry of this map. *)
             let sims = Context.simulate_many e configs map trace in
             List.map2
               (fun config (r : Sim.Driver.result) ->
                 let t = Absint.analyze config map prog in
                 let iv =
                   Absint.interval t ~counts:(Absint.tracked_counts k)
                     ~entries:(Absint.tracked_entries k)
                 in
                 let tot = Absint.totals t in
                 let ratio n =
                   if r.Sim.Driver.accesses = 0 then 0.
                   else float_of_int n /. float_of_int r.Sim.Driver.accesses
                 in
                 {
                   r_bench = Context.name e;
                   r_strategy =
                     (if Context.fell_back e id then
                        id ^ " (fallback: natural)"
                      else id);
                   r_config = Icache.Config.describe config;
                   r_est = (est_of config).Sim.Estimate.est_miss_ratio;
                   r_lo = ratio iv.Absint.lo;
                   r_hi = ratio iv.Absint.hi;
                   r_sim = r.Sim.Driver.miss_ratio;
                   r_within =
                     r.Sim.Driver.misses >= iv.Absint.lo
                     && r.Sim.Driver.misses <= iv.Absint.hi;
                   r_classified =
                     Printf.sprintf "%d/%d" tot.Absint.t_blocks_classified
                       tot.Absint.t_blocks;
                 })
               configs sims)
           strategies)
       ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.r_bench;
          r.r_strategy;
          r.r_config;
          Report.Fmtutil.pct r.r_est;
          Report.Fmtutil.pct r.r_lo;
          Report.Fmtutil.pct r.r_sim;
          Report.Fmtutil.pct r.r_hi;
          (if r.r_within then "yes" else "NO");
          r.r_classified;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Static cache bounds vs simulation: per (benchmark x strategy x \
       config), the paper-S5 heuristic estimate, the certified miss-ratio \
       interval [lo, hi] from must/may/persistence abstract \
       interpretation (trace-exact counts), and the simulated truth — \
       sound iff every simulated ratio sits inside its interval"
    ~header:
      [ "bench"; "strategy"; "config"; "est"; "cert lo"; "sim"; "cert hi";
        "within"; "classified" ]
    ~align:Report.Table.[ L; L; L; R; R; R; R; L; R ]
    rows

(* ------------------------------------------------------------------ *)
(* Differential soundness oracle                                       *)
(* ------------------------------------------------------------------ *)

(* Replays [trace] against a fresh cache under every configuration and
   turns any violated claim into a [Simulation]-stage error diag: the
   fuzzer treats these like any other differential failure, so a
   shrinker can carry the violation down to a minimal program. *)
let oracle_configs =
  [
    Icache.Config.make ~size:512 ~block:16 ();
    Icache.Config.make ~size:512 ~block:16 ~assoc:(Ways 2) ();
  ]

let check_oracle ?(configs = oracle_configs) ~strategy
    (prog : Ir.Prog.program) (map : Placement.Address_map.t)
    (trace : Sim.Trace.t) : Ir.Diag.t list =
  let diags = ref [] in
  let fail fmt =
    Fmt.kstr
      (fun message ->
        diags :=
          Ir.Diag.make ~severity:Ir.Diag.Error ~stage:Ir.Diag.Simulation
            ~strategy "%s" message
          :: !diags)
      fmt
  in
  List.iter
    (fun config ->
      let t = Absint.analyze config map prog in
      if not t.Absint.consistent then
        fail "absint oracle: inconsistent domains at %s (must-hit and \
              may-absent on one access)"
          (Icache.Config.describe config);
      match (t.Absint.gated, t.Absint.universe) with
      | Some _, _ | _, None -> ()
      | None, Some u ->
          let k = Absint.tracker prog in
          let cache = Icache.Cache.create config in
          let line_bytes = config.Icache.Config.block in
          let fm_misses = Hashtbl.create 32 in
          let missed = ref [] in
          Sim.Trace.iter_blocks
            (fun fid l ->
              Absint.track k fid l;
              let addr = map.Placement.Address_map.block_addr.(fid).(l) in
              let words = map.Placement.Address_map.block_words.(fid).(l) in
              missed := [];
              if words > 0 then
                Icache.Cache.access_run cache ~addr ~words
                  ~on_miss:(fun ~at ~word_in_block:_ ~fetched_words:_ ->
                    let line =
                      (addr + (at * Icache.Config.word_bytes)) / line_bytes
                    in
                    match !missed with
                    | hd :: _ when hd = line -> ()
                    | _ -> missed := line :: !missed);
              let missed = !missed in
              let g = Absint.gid t fid l in
              Array.iteri
                (fun i id ->
                  let line = u.Cachedom.line_no.(id) in
                  let did_miss = List.mem line missed in
                  match t.Absint.cls.(g).(i) with
                  | Absint.Hit ->
                      if did_miss then
                        fail
                          "absint oracle: always-hit line %d missed at \
                           %s b%d (access %d) under %s"
                          line prog.Ir.Prog.funcs.(fid).Ir.Prog.name l i
                          (Icache.Config.describe config)
                  | Absint.Miss ->
                      if not did_miss then
                        fail
                          "absint oracle: always-miss line %d hit at %s \
                           b%d (access %d) under %s"
                          line prog.Ir.Prog.funcs.(fid).Ir.Prog.name l i
                          (Icache.Config.describe config)
                  | Absint.First_miss si ->
                      if did_miss then
                        let key = (si, id) in
                        Hashtbl.replace fm_misses key
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt fm_misses key))
                  | Absint.Unknown -> ())
                t.Absint.accesses.(g))
            trace;
          Hashtbl.iter
            (fun (si, id) misses ->
              let entries = Absint.tracked_entries k si in
              if misses > entries then
                fail
                  "absint oracle: first-miss line %d missed %d times but \
                   its scope (%s b%d) was entered %d times under %s"
                  u.Cachedom.line_no.(id) misses
                  prog.Ir.Prog.funcs.(t.Absint.scopes.(si).Absint.s_fid)
                    .Ir.Prog.name
                  t.Absint.scopes.(si).Absint.s_header entries
                  (Icache.Config.describe config))
            fm_misses;
          let iv =
            Absint.interval t ~counts:(Absint.tracked_counts k)
              ~entries:(Absint.tracked_entries k)
          in
          let misses = Icache.Cache.misses cache in
          if misses < iv.Absint.lo || misses > iv.Absint.hi then
            fail
              "absint oracle: simulated %d misses outside certified [%d, \
               %d] under %s"
              misses iv.Absint.lo iv.Absint.hi
              (Icache.Config.describe config))
    configs;
  List.rev !diags
