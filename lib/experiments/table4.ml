(* E4 / Table 4: trace selection results — classification of dynamic
   control transfers against the selected traces, and the mean number of
   basic blocks per (executed) trace.  The transfers are those of the
   recorded trace run (the inlined program on the trace input), so the
   table runs no VM of its own. *)

type row = {
  name : string;
  neutral : float;
  undesirable : float;
  desirable : float;
  trace_length : float;
}

(* Mean basic blocks per nonzero-weight trace, across all functions. *)
let mean_trace_length (p : Placement.Pipeline.t) =
  let total_blocks = ref 0 in
  let total_traces = ref 0 in
  Array.iteri
    (fun fid sel ->
      let w = Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile fid in
      Array.iter
        (fun trace ->
          if Placement.Trace_select.trace_weight w trace > 0 then begin
            total_blocks := !total_blocks + Array.length trace;
            incr total_traces
          end)
        sel.Placement.Trace_select.traces)
    p.Placement.Pipeline.selections;
  if !total_traces = 0 then 0.
  else float_of_int !total_blocks /. float_of_int !total_traces

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let p = Context.pipeline e in
      let counts =
        Sim.Classify.run p.Placement.Pipeline.selections
          (Sim.Trace.result (Context.trace e))
      in
      {
        name = Context.name e;
        neutral = Sim.Classify.fraction counts.Sim.Classify.neutral counts;
        undesirable =
          Sim.Classify.fraction counts.Sim.Classify.undesirable counts;
        desirable =
          Sim.Classify.fraction counts.Sim.Classify.desirable counts;
        trace_length = mean_trace_length p;
      })
    ctx

let table ctx =
  let paper_of name =
    List.find_opt (fun r -> r.Paper.t4_name = name) Paper.table4
  in
  let rows =
    List.map
      (fun r ->
        let paper =
          match paper_of r.name with
          | Some p ->
            [
              Printf.sprintf "%.1f%%" p.Paper.t4_desirable;
              Printf.sprintf "%.1f" p.Paper.t4_trace_length;
            ]
          | None -> [ "-"; "-" ]
        in
        [
          r.name;
          Report.Fmtutil.pct r.neutral;
          Report.Fmtutil.pct r.undesirable;
          Report.Fmtutil.pct r.desirable;
          Report.Fmtutil.f1 r.trace_length;
        ]
        @ paper)
      (compute ctx)
  in
  Report.Table.make
    ~title:"Table 4: trace selection results (measured | paper)"
    ~header:
      [ "name"; "neutral"; "undesirable"; "desirable"; "trace len";
        "paper:des"; "paper:len" ]
    ~align:Report.Table.[ L; R; R; R; R; R; R ]
    rows
