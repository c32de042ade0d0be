(* E2 / Table 2: benchmark characteristics under profiling — source size,
   number of profiling runs, accumulated dynamic instructions and control
   transfers, and the nature of the inputs. *)

type row = {
  name : string;
  source_lines : int;
  runs : int;
  instructions : int; (* accumulated over all profiling runs *)
  control : int; (* control transfers other than call/return *)
  inputs : string;
}

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let p = Context.pipeline e in
      let prof = p.Placement.Pipeline.original_profile in
      {
        name = Context.name e;
        source_lines = Workloads.Bench.source_lines e.Context.bench;
        runs = prof.Vm.Profile.runs;
        instructions = prof.Vm.Profile.dyn_insns;
        control = prof.Vm.Profile.dyn_branches;
        inputs = e.Context.bench.Workloads.Bench.description;
      })
    ctx

let table ctx =
  let paper_of name =
    List.find_opt (fun r -> r.Paper.t2_name = name) Paper.table2
  in
  let rows =
    List.map
      (fun r ->
        let paper =
          match paper_of r.name with
          | Some p ->
            [ Printf.sprintf "%.1fM" p.Paper.t2_instructions;
              Printf.sprintf "%.2fM" p.Paper.t2_control ]
          | None -> [ "-"; "-" ]
        in
        [
          r.name;
          string_of_int r.source_lines;
          string_of_int r.runs;
          Report.Fmtutil.human r.instructions;
          Report.Fmtutil.human r.control;
        ]
        @ paper
        @ [ r.inputs ])
      (compute ctx)
  in
  Report.Table.make
    ~title:"Table 2: profile results (measured | paper)"
    ~header:
      [ "name"; "lines"; "runs"; "instructions"; "control"; "paper:instr";
        "paper:ctrl"; "input description" ]
    ~align:Report.Table.[ L; R; R; R; R; R; R; L ]
    rows
