(* Trace selection tests: the appendix algorithm on hand-built weighted
   graphs, plus qcheck invariants on random weights. *)

open Helpers

let nblocks = 6 (* diamond_loop_func *)

let hot_path_grouped () =
  (* With a 90/10 split, the hot path 1->2->4 joins one trace; the cold
     block 3 is excluded (its arc carries only 10% of block 1's weight). *)
  let sel =
    Placement.Trace_select.select diamond_loop_func (diamond_weights ())
  in
  Alcotest.(check bool) "partition" true
    (Placement.Trace_select.is_partition sel nblocks);
  let t = sel.Placement.Trace_select.trace_of in
  Alcotest.(check int) "1 and 2 together" t.(1) t.(2);
  Alcotest.(check int) "2 and 4 together" t.(2) t.(4);
  Alcotest.(check bool) "cold arm separate" true (t.(3) <> t.(1));
  (* Members are in control order within the trace. *)
  let trace = sel.Placement.Trace_select.traces.(t.(1)) in
  Alcotest.(check (list int)) "control order" [ 1; 2; 4 ]
    (Array.to_list trace)

let min_prob_cutoff () =
  (* At 60/40 neither arm reaches MIN_PROB = 0.7, so block 1 cannot extend
     into either arm. *)
  let sel =
    Placement.Trace_select.select diamond_loop_func
      (diamond_weights ~hot:60 ~cold:40 ())
  in
  let t = sel.Placement.Trace_select.trace_of in
  Alcotest.(check bool) "no arm joins the head" true
    (t.(2) <> t.(1) && t.(3) <> t.(1));
  (* A permissive min_prob groups the hotter arm again. *)
  let sel2 =
    Placement.Trace_select.select ~min_prob:0.5 diamond_loop_func
      (diamond_weights ~hot:60 ~cold:40 ())
  in
  Alcotest.(check int) "lower threshold admits hot arm"
    sel2.Placement.Trace_select.trace_of.(1)
    sel2.Placement.Trace_select.trace_of.(2)

let zero_weight_function () =
  let w =
    Helpers.cfg_of_lists ~func_weight:0 ~blocks:[] ~arcs:[]
  in
  let sel = Placement.Trace_select.select diamond_loop_func w in
  Alcotest.(check bool) "partition" true
    (Placement.Trace_select.is_partition sel nblocks);
  Alcotest.(check int) "every block its own trace" nblocks
    (Array.length sel.Placement.Trace_select.traces)

let entry_never_interior () =
  (* Even with a dominant back edge into the entry, the entry must stay a
     trace head (the appendix excludes ENTRY from forward growth and stops
     backward growth there). *)
  let w =
    Helpers.cfg_of_lists ~func_weight:1
      ~blocks:[ (0, 100); (1, 100); (2, 100); (3, 1); (4, 100); (5, 1) ]
      ~arcs:[ (0, 1, 100); (1, 2, 100); (2, 4, 100); (4, 1, 1) ]
  in
  let sel = Placement.Trace_select.select diamond_loop_func w in
  Array.iter
    (fun trace ->
      Array.iteri
        (fun idx l ->
          if l = 0 then
            Alcotest.(check int) "entry at trace head" 0 idx)
        trace)
    sel.Placement.Trace_select.traces

(* qcheck: for arbitrary weights the result is always a partition and
   every multi-block trace link carries the dominant arc of both
   endpoints. *)
let arbitrary_weights =
  QCheck.make
    ~print:(fun ws -> String.concat "," (List.map string_of_int ws))
    QCheck.Gen.(list_size (return 7) (int_bound 1000))

let prop_partition =
  QCheck.Test.make ~name:"trace selection partitions blocks" ~count:200
    arbitrary_weights (fun ws ->
      let wlist = Array.of_list ws in
      let hot = wlist.(0) mod 100 and cold = wlist.(1) mod 100 in
      let w = diamond_weights ~hot:(hot + 1) ~cold:(cold + 1) () in
      let sel = Placement.Trace_select.select diamond_loop_func w in
      Placement.Trace_select.is_partition sel nblocks)

(* Mean basic blocks per nonzero-weight trace. *)
let mean_length ~w (t : Placement.Trace_select.t) =
  let counted =
    List.filter
      (fun trace -> Placement.Trace_select.trace_weight w trace > 0)
      (Array.to_list t.Placement.Trace_select.traces)
  in
  match counted with
  | [] -> 0.
  | _ ->
    let total =
      List.fold_left (fun acc trace -> acc + Array.length trace) 0 counted
    in
    float_of_int total /. float_of_int (List.length counted)

let prop_mean_length =
  QCheck.Test.make ~name:"mean trace length within [1, nblocks]" ~count:200
    arbitrary_weights (fun ws ->
      let wlist = Array.of_list ws in
      let hot = (wlist.(0) mod 100) + 1 and cold = (wlist.(1) mod 100) + 1 in
      let w = diamond_weights ~hot ~cold () in
      let sel = Placement.Trace_select.select diamond_loop_func w in
      let len = mean_length ~w sel in
      len >= 1. && len <= float_of_int nblocks)

let suite =
  [
    Alcotest.test_case "hot path grouped" `Quick hot_path_grouped;
    Alcotest.test_case "min_prob cutoff" `Quick min_prob_cutoff;
    Alcotest.test_case "zero-weight function" `Quick zero_weight_function;
    Alcotest.test_case "entry never interior" `Quick entry_never_interior;
    QCheck_alcotest.to_alcotest prop_partition;
    QCheck_alcotest.to_alcotest prop_mean_length;
  ]
