(* Shared machinery for the cache-sweep tables (6, 7, 9): simulate each
   benchmark's trace under a list of configurations and render miss and
   traffic ratios side by side with the paper's numbers. *)

type cell = { miss : float; traffic : float }

type row = { name : string; cells : cell list }

let simulate_entry configs map_of e =
  let trace = Context.trace e in
  let pairs = List.map (fun config -> (config, map_of e config)) configs in
  (* Warm the context's result cache one map at a time, so that all
     configurations sharing a map run in one sweep of its span program. *)
  let distinct_maps =
    List.fold_left
      (fun acc (_, map) -> if List.memq map acc then acc else map :: acc)
      [] pairs
  in
  List.iter
    (fun map ->
      let cs =
        List.filter_map
          (fun (c, m) -> if m == map then Some c else None)
          pairs
      in
      ignore (Context.simulate_many e cs map trace))
    distinct_maps;
  {
    name = Context.name e;
    cells =
      List.map
        (fun (config, map) ->
          let r = Context.simulate e config map trace in
          { miss = r.Sim.Driver.miss_ratio; traffic = r.Sim.Driver.traffic_ratio })
        pairs;
  }

let compute ctx configs ~map_of =
  Placement.Pool.map_default (simulate_entry configs map_of) ctx

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
