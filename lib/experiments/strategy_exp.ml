(* E17: layout-strategy comparison — every registered layout strategy
   (IMPACT placement, natural order, Pettis-Hansen, ext-TSP block
   reordering, call-chain clustering) over the same inlined program, at
   the paper's 2KB/64B direct-mapped design point.  The strategy list
   comes from [Placement.Strategy.all]: a newly registered strategy
   appears here with no further wiring. *)

type row = {
  bench : string;
  strategy : string;
  miss : float;
  traffic : float;
}

let config = Icache.Config.make ~size:2048 ~block:64 ()

(* [strategies] is injectable so tests can drive the degradation path
   with a deliberately broken strategy.  A strategy that raised inside
   [Context.strategy_map] yields its natural-layout fallback numbers,
   with the substitution marked in the strategy column. *)
let compute ?(strategies = Placement.Strategy.all) ctx =
  List.concat
  @@ Placement.Pool.map_default
       (fun e ->
      Obs.Span.with_ ~stage:"strategy-exp"
        ~attrs:[ ("bench", Context.name e) ]
      @@ fun () ->
      let trace = Context.trace e in
      List.map
        (fun (s : Placement.Strategy.t) ->
          let map = Context.strategy_map e s in
          let r = Context.simulate e config map trace in
          let id = s.Placement.Strategy.id in
          {
            bench = Context.name e;
            strategy =
              (if Context.fell_back e id then id ^ " (fallback: natural)"
               else id);
            miss = r.Sim.Driver.miss_ratio;
            traffic = r.Sim.Driver.traffic_ratio;
          })
        strategies)
       ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.bench;
          r.strategy;
          Report.Fmtutil.pct r.miss;
          Report.Fmtutil.pct r.traffic;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Layout strategies at 2KB/64B direct-mapped (same inlined program): \
       one row per benchmark x registered strategy"
    ~header:[ "benchmark"; "strategy"; "miss ratio"; "traffic ratio" ]
    ~align:Report.Table.[ L; L; R; R ]
    rows
