(* Read an [Obs.Metrics.dump] (in-process or a daemon's --metrics-out
   file) back into counter and gauge values. *)

let parse text =
  let t = Hashtbl.create 64 in
  (* "kind name value", where a name may itself contain spaces. *)
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         match String.index_opt l ' ' with
         | Some i when List.mem (String.sub l 0 i) [ "counter"; "gauge" ] -> (
             let rest = String.trim (String.sub l i (String.length l - i)) in
             let j = String.rindex rest ' ' in
             match float_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
             | Some f -> Hashtbl.replace t (String.trim (String.sub rest 0 j)) f
             | None -> ())
         | _ -> ());
  t

let read path = parse (In_channel.with_open_text path In_channel.input_all)
let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k)

let sum_prefix t p =
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix:p k then acc +. v else acc)
    t 0.0

(* The counters every workload reads the same way; counts are per run
   when [runs] traced runs fed them. *)
let absint_and_sim ?(runs = 1) t set =
  let per v = v /. float runs in
  set "analysis.absint.iters"
    (per (get t "absint.must_iterations" +. get t "absint.may_iterations"));
  set "sim.accesses" (per (sum_prefix t "sim.accesses{"));
  set "analysis.lint.findings" (per (get t "lint.findings"));
  let h = get t "context.memo_hits" and m = get t "context.memo_misses" in
  set "experiments.memo_hit_ratio" (if h +. m > 0.0 then h /. (h +. m) else 0.0)
