(* E14: analytical estimation vs trace-driven simulation (the paper's §5
   third research direction).

   The estimator predicts the miss ratio from the profile weights and the
   address map alone; the simulator measures it on the held-out trace
   input.  The paper's conjecture: with few mapping conflicts the
   approximation is close — which would let a compiler search the design
   space over "billions of dynamic accesses" without tracing. *)

type row = {
  name : string;
  estimated : float;
  simulated : float;
  compulsory : int;
  conflict : int;
}

let config = Icache.Config.make ~size:2048 ~block:64 ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let pl = Context.pipeline e in
      let est = Sim.Estimate.of_pipeline config pl in
      let sim =
        Context.simulate e config (Context.optimized_map e) (Context.trace e)
      in
      {
        name = Context.name e;
        estimated = est.Sim.Estimate.est_miss_ratio;
        simulated = sim.Sim.Driver.miss_ratio;
        compulsory = est.Sim.Estimate.compulsory;
        conflict = est.Sim.Estimate.conflict;
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.pct ~digits:3 r.estimated;
          Report.Fmtutil.pct ~digits:3 r.simulated;
          string_of_int r.compulsory;
          string_of_int r.conflict;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Estimation vs simulation (sec 5 outlook) at 2KB/64B: profile-only \
       analytical miss ratio vs trace-driven measurement"
    ~header:[ "name"; "estimated"; "simulated"; "compulsory"; "conflict" ]
    ~align:Report.Table.[ L; R; R; R; R ]
    rows
