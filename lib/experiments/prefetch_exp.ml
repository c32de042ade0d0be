(* E16: next-line prefetch ablation.

   Sequential prefetch was the classic 1980s hardware answer to
   instruction-fetch misses.  Placement *increases* code sequentiality,
   so prefetch and placement should compose: this table measures miss and
   traffic at 2KB/64B direct-mapped with and without next-line tagged
   prefetch, under the optimized layout. *)

type row = {
  name : string;
  base : Sim.Driver.result;
  pref : Sim.Driver.result;
}

let base_config = Icache.Config.make ~size:2048 ~block:64 ()
let pref_config = Icache.Config.make ~prefetch:true ~size:2048 ~block:64 ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let trace = Context.trace e in
      let map = Context.optimized_map e in
      match
        Context.simulate_many e [ base_config; pref_config ] map trace
      with
      | [ base; pref ] -> { name = Context.name e; base; pref }
      | _ -> assert false)
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.pct r.base.Sim.Driver.miss_ratio;
          Report.Fmtutil.pct r.pref.Sim.Driver.miss_ratio;
          Report.Fmtutil.pct r.base.Sim.Driver.traffic_ratio;
          Report.Fmtutil.pct r.pref.Sim.Driver.traffic_ratio;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Next-line prefetch ablation at 2KB/64B (optimized layout): misses \
       traded for traffic"
    ~header:
      [ "name"; "miss"; "miss+pf"; "traffic"; "traffic+pf" ]
    ~align:Report.Table.[ L; R; R; R; R ]
    rows
