(* E11 / section 4.2.1 (text): miss-penalty timing ablation.

   The paper argues that streaming + early continuation + load forwarding
   halve the effective miss penalty of large blocks, and that partial
   loading reduces it further because the fill starts at the missed word.
   This experiment quantifies effective access time (cycles per
   instruction fetch) at 2KB/64B under the three refill disciplines. *)

type row = {
  name : string;
  whole_blocking : float;
  whole_streaming : float;
  partial_streaming : float;
}

let whole = Icache.Config.make ~size:2048 ~block:64 ()

let partial =
  Icache.Config.make ~size:2048 ~block:64 ~fill:Icache.Config.Partial ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let map = Context.optimized_map e in
      let trace = Context.trace e in
      let w, p =
        match Context.simulate_many e [ whole; partial ] map trace with
        | [ w; p ] -> (w, p)
        | _ -> assert false
      in
      {
        name = Context.name e;
        whole_blocking = w.Sim.Driver.eat_blocking;
        whole_streaming = w.Sim.Driver.eat_streaming;
        partial_streaming = p.Sim.Driver.eat_streaming_partial;
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.f2 r.whole_blocking;
          Report.Fmtutil.f2 r.whole_streaming;
          Report.Fmtutil.f2 r.partial_streaming;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Timing ablation (sec 4.2.1) at 2KB/64B: effective access time in \
       cycles/fetch (10-cycle memory latency, 4B/cycle bus)"
    ~header:
      [ "name"; "whole+blocking"; "whole+streaming"; "partial+streaming" ]
    ~align:Report.Table.[ L; R; R; R ]
    rows
