(* Experiment-layer tests: paper constants, table generation on a small
   benchmark subset, report rendering. *)

let smith_lookup () =
  Alcotest.(check (option (float 1e-9))) "2K/64B" (Some 0.068)
    (Experiments.Paper.smith_miss_ratio ~cache_size:2048 ~block_size:64);
  Alcotest.(check (option (float 1e-9))) "512/16B" (Some 0.23)
    (Experiments.Paper.smith_miss_ratio ~cache_size:512 ~block_size:16);
  Alcotest.(check (option (float 1e-9))) "absent point" None
    (Experiments.Paper.smith_miss_ratio ~cache_size:3000 ~block_size:64)

let paper_tables_complete () =
  let names = Experiments.Paper.benchmarks in
  Alcotest.(check int) "ten benchmarks" 10 (List.length names);
  List.iter
    (fun (table, label, width) ->
      List.iter
        (fun name ->
          match Experiments.Paper.lookup_mt table name with
          | Some cells ->
            Alcotest.(check int) (label ^ " width for " ^ name) width
              (List.length cells)
          | None -> Alcotest.failf "%s missing %s" label name)
        names)
    [
      (Experiments.Paper.table6, "table6", 5);
      (Experiments.Paper.table7, "table7", 4);
      (Experiments.Paper.table9, "table9", 4);
    ]

let table_rendering () =
  let t =
    Report.Table.make ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Report.Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && s.[0] = 'T');
  (* All lines padded to equal cell widths; row 333 defines column a. *)
  Alcotest.(check bool) "contains padded row" true
    (String.length s > 10);
  Alcotest.check_raises "width mismatch rejected"
    (Invalid_argument "Table.make: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Report.Table.make ~title:"" ~header:[ "a"; "b" ] [ [ "x" ] ]))

let charts () =
  let bar =
    Report.Chart.bars ~width:10 ~title:"T"
      [ ("a", 1.0); ("bb", 0.5); ("c", 0.0) ]
  in
  let lines = String.split_on_char '\n' bar in
  Alcotest.(check string) "title" "T" (List.hd lines);
  Alcotest.(check bool) "peak bar full width" true
    (String.length bar > 0
    &&
    let row_a = List.nth lines 1 in
    String.length (String.concat "" (String.split_on_char '#' row_a))
    = String.length row_a - 10);
  Alcotest.(check bool) "zero bar empty" true
    (not (String.contains (List.nth lines 3) '#'));
  let spark =
    Report.Chart.sparklines ~title:"S" ~points:[ "x"; "y" ]
      [ ("s1", [ 0.0; 1.0 ]) ]
  in
  Alcotest.(check bool) "sparkline renders ramp ends" true
    (let line = List.nth (String.split_on_char '\n' spark) 1 in
     String.length line > 0
     && String.contains line '['
     && String.contains line '@')

let fmt_helpers () =
  Alcotest.(check string) "pct" "2.70%" (Report.Fmtutil.pct 0.027);
  Alcotest.(check string) "pct0" "17%" (Report.Fmtutil.pct0 0.17);
  Alcotest.(check string) "human M" "11.7M" (Report.Fmtutil.human 11_700_000);
  Alcotest.(check string) "human K" "2.2K" (Report.Fmtutil.human 2_200);
  Alcotest.(check string) "human small" "42" (Report.Fmtutil.human 42)

(* Slow-ish: builds a real context over two small benchmarks and renders
   every experiment table. *)
let all_tables_render () =
  let ctx = Experiments.Context.create ~names:[ "wc"; "tee" ] () in
  List.iter
    (fun spec ->
      let s =
        Report.Table.render (Experiments.Runner.run_spec ctx spec).table
      in
      Alcotest.(check bool)
        ("table " ^ spec.Experiments.Runner.id ^ " non-empty")
        true
        (String.length s > 40))
    Experiments.Runner.all

let context_caching () =
  let ctx = Experiments.Context.create ~names:[ "tee" ] () in
  let e = List.hd (Experiments.Context.entries ctx) in
  let p1 = Experiments.Context.pipeline e in
  let p2 = Experiments.Context.pipeline e in
  Alcotest.(check bool) "pipeline computed once" true (p1 == p2);
  let t1 = Experiments.Context.trace e in
  let t2 = Experiments.Context.trace e in
  Alcotest.(check bool) "trace computed once" true (t1 == t2)

let scaled_map_properties () =
  let ctx = Experiments.Context.create ~names:[ "tee" ] () in
  let e = List.hd (Experiments.Context.entries ctx) in
  let base = Experiments.Context.optimized_map e in
  let half = Experiments.Context.scaled_map e 0.5 in
  Alcotest.(check bool) "scaled map smaller" true
    (half.Placement.Address_map.total_bytes
    < base.Placement.Address_map.total_bytes);
  Alcotest.(check bool) "scaled map disjoint" true
    (Helpers.is_disjoint half);
  Alcotest.(check bool) "factor 1.0 is the base map" true
    (Experiments.Context.scaled_map e 1.0 == base)

let suite =
  [
    Alcotest.test_case "smith lookup" `Quick smith_lookup;
    Alcotest.test_case "paper tables complete" `Quick paper_tables_complete;
    Alcotest.test_case "table rendering" `Quick table_rendering;
    Alcotest.test_case "format helpers" `Quick fmt_helpers;
    Alcotest.test_case "charts" `Quick charts;
    Alcotest.test_case "context caching" `Quick context_caching;
    Alcotest.test_case "scaled map properties" `Quick scaled_map_properties;
    Alcotest.test_case "all tables render" `Slow all_tables_render;
  ]
