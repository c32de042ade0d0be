(* E9 / Table 9: effect of code scaling — the 2KB/64B partial-loading
   experiment repeated with every basic block scaled to 0.5x, 0.7x, 1.0x
   and 1.1x of its size, simulating denser or sparser instruction
   encodings.  The placement is recomputed for each scaled program; the
   recorded block trace replays against the scaled address map. *)

let factors = Paper.table9_factors

let config =
  Icache.Config.make ~size:2048 ~block:64 ~fill:Icache.Config.Partial ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let trace = Context.trace e in
      {
        Sweep.name = Context.name e;
        cells =
          List.map
            (fun factor ->
              let map = Context.scaled_map e factor in
              let r = Context.simulate e config map trace in
              {
                Sweep.miss = r.Sim.Driver.miss_ratio;
                traffic = r.Sim.Driver.traffic_ratio;
              })
            factors;
      })
    ctx

let table ctx =
  Sweep.render
    ~title:
      "Table 9: effect of code scaling (2KB/64B, partial loading); cells \
       are measured (paper)"
    ~point_names:(List.map (fun f -> Printf.sprintf "x%.1f" f) factors)
    ~paper:Paper.table9 (compute ctx)
