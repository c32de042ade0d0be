(* E13: instruction paging (the paper's §5 first research direction).

   Replays each benchmark's trace through the page simulator under the
   natural and optimized layouts: pages touched (compulsory faults),
   bounded-memory LRU fault rate, and the mean Denning working set.
   Placement packs the effective regions of all functions together, so
   the optimized layout should touch fewer pages and keep a smaller
   working set. *)

type row = {
  name : string;
  nat_pages : int;
  opt_pages : int;
  nat_ws : float;
  opt_ws : float;
  nat_fault_rate : float;
  opt_fault_rate : float;
}

let config = Paging.Page_sim.default_config (* 512B pages, 16 frames *)

(* The page simulator as a trace consumer: each maximal
   address-contiguous span ([Sim.Trace.iter_spans], the walk the cache
   sweep's span programs are built from) is one [Page_sim.access_run],
   which equals a word-by-word walk, so fusing blocks into spans
   changes nothing. *)
let run_one map trace =
  Obs.Span.with_ ~stage:"simulate" ~attrs:[ ("engine", "paging") ]
  @@ fun () ->
  let sim = Paging.Page_sim.create config in
  Sim.Trace.iter_spans map
    (fun addr words -> Paging.Page_sim.access_run sim ~addr ~words)
    trace;
  sim

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let trace = Context.trace e in
      let nat = run_one (Context.natural_map e) trace in
      let opt = run_one (Context.optimized_map e) trace in
      {
        name = Context.name e;
        nat_pages = Paging.Page_sim.distinct_pages nat;
        opt_pages = Paging.Page_sim.distinct_pages opt;
        nat_ws = Paging.Page_sim.mean_working_set nat;
        opt_ws = Paging.Page_sim.mean_working_set opt;
        nat_fault_rate = Paging.Page_sim.fault_rate nat;
        opt_fault_rate = Paging.Page_sim.fault_rate opt;
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          string_of_int r.nat_pages;
          string_of_int r.opt_pages;
          Report.Fmtutil.f1 r.nat_ws;
          Report.Fmtutil.f1 r.opt_ws;
          Report.Fmtutil.pct ~digits:4 r.nat_fault_rate;
          Report.Fmtutil.pct ~digits:4 r.opt_fault_rate;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      (Printf.sprintf
         "Paging (sec 5 outlook): %dB pages, %d frames, working-set \
          window %d — natural vs optimized layout"
         config.Paging.Page_sim.page_bytes config.Paging.Page_sim.frames
         config.Paging.Page_sim.theta)
    ~header:
      [ "name"; "pages nat"; "pages opt"; "ws nat"; "ws opt";
        "fault nat"; "fault opt" ]
    ~align:Report.Table.[ L; R; R; R; R; R; R ]
    rows
