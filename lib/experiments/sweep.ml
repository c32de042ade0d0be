(* Shared machinery for the cache-sweep tables (6, 7, 9): simulate each
   benchmark's trace under the optimized layout in a list of
   configurations, and render miss and traffic ratios side by side with
   the paper's numbers. *)

type cell = { miss : float; traffic : float }

type row = { name : string; cells : cell list }

(* Every configuration replays the optimized map's span program in one
   sweep. *)
let simulate_entry configs e =
  let results =
    Context.simulate_many e configs (Context.optimized_map e) (Context.trace e)
  in
  {
    name = Context.name e;
    cells =
      List.map
        (fun (r : Sim.Driver.result) ->
          { miss = r.miss_ratio; traffic = r.traffic_ratio })
        results;
  }

let compute ctx configs = Placement.Pool.map_default (simulate_entry configs) ctx

(* Render measured next to paper values: each sweep point becomes two
   columns "miss" and "traffic", each cell "measured (paper)". *)
let render ~title ~point_names ~paper rows =
  let header =
    "name"
    :: List.concat_map (fun p -> [ p ^ " miss"; p ^ " traffic" ]) point_names
  in
  let body =
    List.map
      (fun r ->
        let paper_cells = Paper.lookup_mt paper r.name in
        let cells =
          List.mapi
            (fun idx c ->
              let p =
                match paper_cells with
                | Some l when idx < List.length l -> Some (List.nth l idx)
                | Some _ | None -> None
              in
              let fmt measured paper_value =
                match paper_value with
                | Some p -> Printf.sprintf "%s (%.2f%%)" (Report.Fmtutil.pct measured) p
                | None -> Report.Fmtutil.pct measured
              in
              [
                fmt c.miss (Option.map fst p);
                fmt c.traffic (Option.map snd p);
              ])
            r.cells
        in
        r.name :: List.concat cells)
      rows
  in
  let align =
    Report.Table.L :: List.concat_map (fun _ -> Report.Table.[ R; R ]) point_names
  in
  Report.Table.make ~title ~header ~align body
