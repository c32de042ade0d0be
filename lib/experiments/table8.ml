(* E8 / Table 8: schemes to reduce the memory traffic ratio at 2KB/64B —
   block sectoring (8-byte sectors) versus partial loading, including the
   partial scheme's average transfer size (avg.fetch, 4-byte entities) and
   average sequential run from a miss (avg.exec, instructions). *)

type row = {
  name : string;
  sector : Sim.Driver.result;
  partial : Sim.Driver.result;
}

let sector_config =
  Icache.Config.make ~size:2048 ~block:64 ~fill:(Icache.Config.Sectored 8) ()

let partial_config =
  Icache.Config.make ~size:2048 ~block:64 ~fill:Icache.Config.Partial ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let map = Context.optimized_map e in
      let trace = Context.trace e in
      match
        Context.simulate_many e [ sector_config; partial_config ] map trace
      with
      | [ sector; partial ] -> { name = Context.name e; sector; partial }
      | _ -> assert false)
    ctx

let table ctx =
  let paper_of name =
    List.find_opt (fun r -> r.Paper.t8_name = name) Paper.table8
  in
  let rows =
    List.map
      (fun r ->
        let p = paper_of r.name in
        let pmiss =
          match p with
          | Some p -> Printf.sprintf "%.2f%%" (fst p.Paper.t8_partial)
          | None -> "-"
        in
        let pexec =
          match p with
          | Some { Paper.t8_avg_exec = Some x; _ } -> Printf.sprintf "%.1f" x
          | Some _ | None -> "-"
        in
        [
          r.name;
          Report.Fmtutil.pct r.sector.Sim.Driver.miss_ratio;
          Report.Fmtutil.pct r.sector.Sim.Driver.traffic_ratio;
          Report.Fmtutil.pct r.partial.Sim.Driver.miss_ratio;
          Report.Fmtutil.pct r.partial.Sim.Driver.traffic_ratio;
          Report.Fmtutil.f1 r.partial.Sim.Driver.avg_fetch_words;
          Report.Fmtutil.f1 r.partial.Sim.Driver.avg_exec_insns;
          pmiss;
          pexec;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Table 8: reducing memory traffic at 2KB/64B — sectored (8B) vs \
       partial loading (measured | paper partial)"
    ~header:
      [ "name"; "sect miss"; "sect traffic"; "part miss"; "part traffic";
        "avg.fetch"; "avg.exec"; "paper:miss"; "paper:exec" ]
    ~align:Report.Table.[ L; R; R; R; R; R; R; R; R ]
    rows
