(* E5 / Table 5: static and dynamic code sizes — total static bytes,
   effective (executed) static bytes, and the number of dynamic
   instruction accesses in each benchmark's trace. *)

type row = {
  name : string;
  total_static_bytes : int;
  effective_static_bytes : int;
  dynamic_accesses : int;
}

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let map = Context.optimized_map e in
      {
        name = Context.name e;
        total_static_bytes = map.Placement.Address_map.total_bytes;
        effective_static_bytes = map.Placement.Address_map.effective_bytes;
        dynamic_accesses = Sim.Trace.dyn_insns map (Context.trace e);
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.human r.total_static_bytes;
          Report.Fmtutil.human r.effective_static_bytes;
          Report.Fmtutil.human r.dynamic_accesses;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Table 5: static and dynamic code sizes (paper ranges: total \
       2.8K-55K, effective 2K-34K)"
    ~header:[ "name"; "total static"; "effective static"; "dyn accesses" ]
    ~align:Report.Table.[ L; R; R; R ]
    rows
