(* The `compile` workload: the compiler user's path.  Each pass runs
   [Placement.Pipeline.run] and then [Pipeline.map_for] for all five
   registered strategies on every program, serially; nothing is
   simulated.  The seed orders programs and strategies. *)

open Util

(* From the fewest executed blocks (tee) to the largest code (cccp). *)
let programs = [ "tee"; "cmp"; "tar"; "cccp" ]
let benches () = List.map Workloads.Registry.find programs

(* What a compiler user pays before compiling: lowering each program
   and generating its inputs. *)
let setup () =
  let bs = benches () in
  let _, lower_s = time (fun () -> List.iter (fun b -> ignore (Workloads.Bench.program b)) bs) in
  let _, inputs_s =
    time (fun () ->
        List.iter
          (fun b ->
            ignore (Workloads.Bench.profile_inputs b);
            ignore (Workloads.Bench.trace_input b))
          bs)
  in
  (bs, lower_s, inputs_s)

let map_digest (m : Placement.Address_map.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d\n" m.total_bytes m.effective_bytes;
  Array.iteri
    (fun fid addrs ->
      Printf.bprintf b "%d:" fid;
      Array.iteri (fun l a -> Printf.bprintf b " %d/%d" a m.block_words.(fid).(l)) addrs;
      Buffer.add_char b '\n')
    m.block_addr;
  Digest.to_hex (Digest.string (Buffer.contents b))

type program_result = {
  name : string;
  seconds : float;
  maps : (string * string) list;  (** strategy, digest *)
  pipe : Placement.Pipeline.t;
}

(* One pass, wrapped in the benchmark's own spans so a traced pass can
   attribute pipeline glue to the placement layer. *)
let pass rng bs =
  List.map
    (fun b ->
      let name = b.Workloads.Bench.name in
      let (pipe, maps), seconds =
        time (fun () ->
            let pipe =
              Obs.Span.with_ ~stage:"pipeline" ~attrs:[ ("bench", name) ] (fun () ->
                  Placement.Pipeline.run (Workloads.Bench.program b)
                    ~inputs:(Workloads.Bench.profile_inputs b))
            in
            let maps =
              List.map
                (fun (s : Placement.Strategy.t) ->
                  Obs.Span.with_ ~stage:"strategy-map" ~attrs:[ ("strategy", s.id) ]
                    (fun () -> (s.id, map_digest (Placement.Pipeline.map_for pipe s))))
                (shuffle rng Placement.Strategy.all)
            in
            (pipe, maps))
      in
      { name; seconds; maps; pipe })
    (shuffle rng bs)

let golden_file = "perfbench/golden/compile.txt"

let load_golden () =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ p; s; d ] -> Some ((p, s), d)
         | _ -> None)

let golden_lines results =
  List.concat_map
    (fun r -> List.map (fun (s, d) -> Printf.sprintf "%s %s %s" r.name s d) r.maps)
    results
  |> List.sort compare

(* (attempted, failed) for one pass's maps. *)
let check golden results (a, f) =
  List.fold_left
    (fun (a, f) r ->
      List.fold_left
        (fun (a, f) (s, d) ->
          match List.assoc_opt (r.name, s) golden with
          | Some g when g = d -> (a + 1, f)
          | _ ->
              mismatch "compile %s/%s: address map differs from golden" r.name s;
              (a + 1, f + 1))
        (a, f) r.maps)
    (a, f) results

(* Each pass's pipelines are dropped once checked, so memory does not
   grow with the pass count.  Returns (pass seconds, per-program
   seconds) at reference speed, and the check counts. *)
let passes ~seed ~seconds bs golden =
  let rng = Workloads.Rng.create seed in
  let counts = ref (0, 0) in
  let ps =
    Util.passes ~label:"compile" ~seconds
      ~keep:(fun results scale ->
        counts := check golden results !counts;
        List.map (fun r -> (r.name, r.seconds *. scale)) results)
      (fun () -> pass rng bs)
  in
  (ps, fst !counts, snd !counts)

let run ~seed ~seconds =
  let golden = load_golden () in
  let (bs, _, _), setup_s = repeat_setup ~reps:9 setup in
  let ps, attempted, failed = passes ~seed ~seconds bs golden in
  ( attempted,
    failed,
    [
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric "work_s" "s" (median (List.map fst ps));
    ] )

let traced_pairs = 4

(* Blocks executed by a pipeline's two profiling stages. *)
let profiled_blocks (p : Placement.Pipeline.t) =
  p.original_profile.Vm.Profile.dyn_blocks + p.profile.dyn_blocks

let run_traced ~seed ~seconds ~set ~add =
  let golden = load_golden () in
  let bs, lower_s, inputs_s = setup () in
  set "workloads.lower_s" lower_s;
  set "workloads.inputs_s" inputs_s;
  let ps, attempted, failed = passes ~seed ~seconds bs golden in
  List.iter
    (fun p -> set ("compile." ^ p ^ "_s") (median (List.map (fun (_, rs) -> List.assoc p rs) ps)))
    programs;
  Obs.Metrics.reset ();
  let runs, overhead, other, busy, _ =
    Spans.traced_pairs ~pairs:traced_pairs ~add (fun i ->
        pass (Workloads.Rng.create (seed + i)) bs)
  in
  let attempted, failed =
    List.fold_left (fun acc rs -> check golden rs acc) (attempted, failed) runs
  in
  set "other.share" (other /. busy);
  set "obs.trace_overhead" overhead;
  let results = List.hd runs in
  let sum f = float (List.fold_left (fun a r -> a + f r) 0 results) in
  set "vm.blocks" (sum (fun r -> profiled_blocks r.pipe));
  set "placement.inline.sites"
    (sum (fun r -> r.pipe.inline_report.Placement.Inline.sites_inlined));
  Metrics_file.absint_and_sim ~runs:traced_pairs
    (Metrics_file.parse (Obs.Metrics.dump ()))
    set;
  (attempted, failed)
