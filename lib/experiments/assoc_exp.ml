(* E15: set-associativity sweep.

   Przybylski (cited in the paper's §2.1) showed associativity is not
   free: it pays for itself only when it saves more misses than its cycle
   -time cost.  The paper's position is that placement makes a
   direct-mapped cache good enough.  This sweep quantifies how little is
   left on the table: miss ratios at 2KB/64B for 1/2/4-way and fully
   associative caches under the optimized layout, and direct-mapped under
   the natural layout for contrast. *)

type row = {
  name : string;
  nat_direct : float;
  direct : float;
  way2 : float;
  way4 : float;
  full : float;
}

let at assoc = Icache.Config.make ~assoc ~size:2048 ~block:64 ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let trace = Context.trace e in
      (* All four associativities of the optimized map share one pass. *)
      let direct, way2, way4, full =
        match
          Context.simulate_many e
            (List.map at
               [
                 Icache.Config.Direct; Icache.Config.Ways 2;
                 Icache.Config.Ways 4; Icache.Config.Full;
               ])
            (Context.optimized_map e) trace
        with
        | [ d; w2; w4; f ] -> (d, w2, w4, f)
        | _ -> assert false
      in
      let miss (r : Sim.Driver.result) = r.miss_ratio in
      {
        name = Context.name e;
        nat_direct =
          miss
            (Context.simulate e (at Icache.Config.Direct)
               (Context.natural_map e) trace);
        direct = miss direct;
        way2 = miss way2;
        way4 = miss way4;
        full = miss full;
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.pct r.nat_direct;
          Report.Fmtutil.pct r.direct;
          Report.Fmtutil.pct r.way2;
          Report.Fmtutil.pct r.way4;
          Report.Fmtutil.pct r.full;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Associativity sweep at 2KB/64B: what set-associativity adds once \
       placement has done its work"
    ~header:
      [ "name"; "direct (natural)"; "direct"; "2-way"; "4-way"; "full" ]
    ~align:Report.Table.[ L; R; R; R; R; R ]
    rows
