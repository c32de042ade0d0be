(* E3 / Table 3: inline expansion results — static code increase, dynamic
   calls eliminated, and dynamic instructions / control transfers executed
   per remaining function call.

   Note: the paper's tee row counts read/write system calls as function
   calls; our system calls are VM intrinsics outside the call graph, so a
   benchmark with no real calls reports "-". *)

type row = {
  name : string;
  code_inc : float; (* fraction, e.g. 0.17 *)
  call_dec : float; (* fraction of dynamic calls eliminated *)
  di_per_call : float option;
  ct_per_call : float option;
  sites : int;
}

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let p = Context.pipeline e in
      let before = p.Placement.Pipeline.original_profile in
      let after = p.Placement.Pipeline.profile in
      let calls_before = before.Vm.Profile.dyn_calls in
      let calls_after = after.Vm.Profile.dyn_calls in
      let per denom n =
        if denom = 0 then None
        else Some (float_of_int n /. float_of_int denom)
      in
      {
        name = Context.name e;
        code_inc = Placement.Inline.code_increase p.Placement.Pipeline.inline_report;
        call_dec =
          (if calls_before = 0 then 0.
           else
             float_of_int (calls_before - calls_after)
             /. float_of_int calls_before);
        di_per_call = per calls_after after.Vm.Profile.dyn_insns;
        ct_per_call = per calls_after after.Vm.Profile.dyn_branches;
        sites = p.Placement.Pipeline.inline_report.Placement.Inline.sites_inlined;
      })
    ctx

let table ctx =
  let paper_of name =
    List.find_opt (fun r -> r.Paper.t3_name = name) Paper.table3
  in
  let fopt = function
    | Some x -> Printf.sprintf "%.0f" x
    | None -> "-"
  in
  let rows =
    List.map
      (fun r ->
        let paper =
          match paper_of r.name with
          | Some p ->
            [
              (match p.Paper.t3_code_inc with
              | Some x -> Printf.sprintf "%.0f%%" x
              | None -> "?");
              (match p.Paper.t3_call_dec with
              | Some x -> Printf.sprintf "%.0f%%" x
              | None -> "?");
            ]
          | None -> [ "-"; "-" ]
        in
        [
          r.name;
          string_of_int r.sites;
          Report.Fmtutil.pct0 r.code_inc;
          Report.Fmtutil.pct0 r.call_dec;
          fopt r.di_per_call;
          fopt r.ct_per_call;
        ]
        @ paper)
      (compute ctx)
  in
  Report.Table.make
    ~title:"Table 3: inline expansion results (measured | paper)"
    ~header:
      [ "name"; "sites"; "code inc"; "call dec"; "DI/call"; "CT/call";
        "paper:inc"; "paper:dec" ]
    ~align:Report.Table.[ L; R; R; R; R; R; R; R ]
    rows
