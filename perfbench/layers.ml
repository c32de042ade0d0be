(* The per-layer metrics of a traced run.  Every traced run reports the
   full set; a layer the workload does not exercise reads 0, which is
   how the layer -> workload map in README.md shows. *)

let all =
  [
    ("workloads.lower_s", "s");
    ("workloads.inputs_s", "s");
    ("vm.profile_s", "s");
    ("vm.blocks", "count");
    ("vm.mblocks_per_s", "Mblocks/s");
    ("placement.simplify_s", "s");
    ("placement.inline_s", "s");
    ("placement.inline.sites", "count");
    ("placement.trace_select_s", "s");
    ("placement.func_layout_s", "s");
    ("placement.global_layout_s", "s");
    ("placement.address_map_s", "s");
    ("placement.strategy.ph_s", "s");
    ("placement.strategy.exttsp_s", "s");
    ("placement.strategy.c3_s", "s");
    ("placement.pipeline_s", "s");
  ]
  @ List.map (fun p -> ("compile." ^ p ^ "_s", "s")) Compile_wl.programs
  @ [
      ("sim.record_s", "s");
      ("sim.trace_ratio", "ratio");
      ("sim.replay_s", "s");
      ("sim.accesses", "count");
      ("sim.ns_per_access", "ns");
      ("icache.access_run_ns", "ns");
    ]
  @ List.map (fun (s : Experiments.Runner.spec) -> ("experiments.t" ^ s.id ^ "_s", "s"))
      Experiments.Runner.all
  @ [
      ("experiments.self_s", "s");
      ("experiments.memo_hit_ratio", "ratio");
      ("analysis.absint_s", "s");
      ("analysis.absint.iters", "count");
      ("analysis.lint_s", "s");
      ("analysis.lint.findings", "count");
      ("serve.parse_s", "s");
      ("serve.admission_s", "s");
      ("serve.store_lookup_s", "s");
      ("serve.strategy_map_s", "s");
      ("serve.simulate_s", "s");
      ("serve.certify_s", "s");
      ("serve.emit_s", "s");
      ("serve.request_s", "s");
      ("serve.evictions", "count");
      ("serve.rps", "1/s");
    ]
  @ List.concat_map
      (fun c ->
        let k = "serve." ^ Serve_wl.cls_name c in
        [ (k ^ ".n", "count"); (k ^ ".p50_ms", "ms"); (k ^ "." ^ fst (Serve_wl.tail c) ^ "_ms", "ms") ])
      Serve_wl.classes
  @ [
      ("obs.json_roundtrip_ns", "ns");
      ("obs.trace_overhead", "ratio");
      ("other.share", "ratio");
      ("pool.busy_ratio", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let estimate_ns test =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ~kde:None ()
  in
  let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock results in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ t ] -> t | _ -> acc)
    results nan

(* One access_run per block of a fixed pseudo-random 2KB/64B stream. *)
let access_run_ns () =
  let cache = Icache.Cache.create (Icache.Config.make ~size:2048 ~block:64 ()) in
  let rng = Workloads.Rng.create 7 in
  let runs =
    Array.init 1024 (fun _ ->
        (4 * Workloads.Rng.int rng 4096, 1 + Workloads.Rng.int rng 12))
  in
  let on_miss ~at:_ ~word_in_block:_ ~fetched_words:_ = () in
  let test =
    Test.make ~name:"access_run"
      (Staged.stage (fun () ->
           Array.iter
             (fun (addr, words) -> Icache.Cache.access_run cache ~addr ~words ~on_miss)
             runs))
  in
  estimate_ns test /. float (Array.length runs)

(* Parse and re-emit the committed cmp layout response. *)
let json_roundtrip_ns () =
  let line =
    String.trim (In_channel.with_open_text "perfbench/golden/layout_response.json" In_channel.input_all)
  in
  let test =
    Test.make ~name:"json_roundtrip"
      (Staged.stage (fun () -> ignore (Obs.Json.to_string (Obs.Json.parse_exn line))))
  in
  estimate_ns test

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 128
let set (t : t) k v = Hashtbl.replace t k v
let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
let add (t : t) k v = set t k (get t k +. v)

(* Derived rows, the micro-benchmarks, then every metric in order; a
   name outside [all] is a bug in the benchmark. *)
let finish (t : t) =
  let ratio a b = if get t b > 0.0 then get t a /. get t b else 0.0 in
  set t "vm.mblocks_per_s" (ratio "vm.blocks" "vm.profile_s" /. 1e6);
  set t "sim.ns_per_access" (ratio "sim.replay_s" "sim.accesses" *. 1e9);
  set t "icache.access_run_ns" (access_run_ns ());
  set t "obs.json_roundtrip_ns" (json_roundtrip_ns ());
  Hashtbl.iter
    (fun k _ -> if not (List.mem_assoc k all) then failwith ("unlisted per-layer metric " ^ k))
    t;
  List.map (fun (k, u) -> Util.metric k u (get t k)) all
