(* E10 / section 4.2.4: comparison with previous results.

   The paper compares its direct-mapped-with-placement miss ratios against
   Smith's fully-associative design targets (Table 1) and finds them
   consistently better, averaging about 1/5 of the target.  We reproduce
   that comparison at the 2KB/64B design point, and additionally measure
   what the paper could not: the same programs under a fully associative
   LRU cache with NO placement optimization (original code, natural
   layout) on our own substrate, plus the natural-layout direct-mapped
   baseline that isolates the layout contribution. *)

type row = {
  name : string;
  optimized_direct : float; (* placement + direct-mapped *)
  natural_direct : float; (* inlined program, natural layout *)
  unopt_full : float; (* original program, fully associative LRU *)
  unopt_direct : float; (* original program, natural layout, direct *)
  smith_target : float option;
}

let cache_size = 2048
let block_size = 64

let direct = Icache.Config.make ~size:cache_size ~block:block_size ()

let full =
  Icache.Config.make ~size:cache_size ~block:block_size
    ~assoc:Icache.Config.Full ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let trace = Context.trace e in
      let original_trace = Context.original_trace e in
      let miss config map t =
        (Context.simulate e config map t).Sim.Driver.miss_ratio
      in
      {
        name = Context.name e;
        optimized_direct = miss direct (Context.optimized_map e) trace;
        natural_direct = miss direct (Context.natural_map e) trace;
        unopt_full = miss full (Context.original_map e) original_trace;
        unopt_direct = miss direct (Context.original_map e) original_trace;
        smith_target =
          Paper.smith_miss_ratio ~cache_size ~block_size;
      })
    ctx

let mean f rows =
  match rows with
  | [] -> 0.
  | _ ->
    List.fold_left (fun acc r -> acc +. f r) 0. rows
    /. float_of_int (List.length rows)

let table ctx =
  let rows = compute ctx in
  let body =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.pct r.optimized_direct;
          Report.Fmtutil.pct r.natural_direct;
          Report.Fmtutil.pct r.unopt_direct;
          Report.Fmtutil.pct r.unopt_full;
          (match r.smith_target with
          | Some t -> Report.Fmtutil.pct t
          | None -> "-");
        ])
      rows
  in
  let avg =
    [
      "AVERAGE";
      Report.Fmtutil.pct (mean (fun r -> r.optimized_direct) rows);
      Report.Fmtutil.pct (mean (fun r -> r.natural_direct) rows);
      Report.Fmtutil.pct (mean (fun r -> r.unopt_direct) rows);
      Report.Fmtutil.pct (mean (fun r -> r.unopt_full) rows);
      (match Paper.smith_miss_ratio ~cache_size ~block_size with
      | Some t -> Report.Fmtutil.pct t
      | None -> "-");
    ]
  in
  Report.Table.make
    ~title:
      "Comparison (sec 4.2.4) at 2KB/64B: miss ratios of placement + \
       direct-mapped vs unoptimized baselines and Smith's fully \
       associative design target"
    ~header:
      [ "name"; "opt direct"; "natural direct"; "unopt direct";
        "unopt full-LRU"; "Smith target" ]
    ~align:Report.Table.[ L; R; R; R; R; R ]
    (body @ [ avg ])
