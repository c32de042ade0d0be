(* The `serve` workload: one closed-loop client driving one
   `bin/serve.exe -j 1` process over its stdin/stdout, with a seeded
   request stream of five unimodal classes.

   - sim: a layout request on cmp for a (strategy, geometry) not asked
     before in the session, so it costs one single-config trace replay;
   - custom: a profile-upload that advances an epoch of a tee profile,
     then a layout request against it (store validation, map rebuild,
     replay);
   - certify: a cheap-tier request (deadline <= 5 ms) on a cmp geometry
     not asked before, so it runs one abstract interpretation;
   - lint: a lint request on cmp (never cached);
   - hit: a repeat of a layout triple already served (memo hit).

   The daemon batches read-only requests until eight are queued or a
   barrier arrives, so a lone closed-loop client follows every layout
   and lint request with a `health` barrier; the request's latency ends
   when its own response arrives. *)

open Util
module J = Obs.Json

let resident = "cmp,tee"
let main_bench = "cmp"
let custom_bench = "tee"
let strategies = List.map (fun s -> s.Placement.Strategy.id) Placement.Strategy.all
let epoch_window = Serve.Daemon.default_config.epoch_window

type geom = { size : int; block : int; ways : int (* 1 = direct *) }

let geom_key g = Printf.sprintf "%d/%d/%d" g.size g.block g.ways

let geom_json g =
  J.Obj
    [
      ("size", J.Int g.size);
      ("block", J.Int g.block);
      ("assoc", if g.ways = 1 then J.String "direct" else J.Int g.ways);
      ("fill", J.String "whole");
    ]

let default_geom = { size = 2048; block = 64; ways = 1 }
let warm_certify_geom = { size = 2048; block = 32; ways = 1 }

(* Replays on cmp cost 40-80 ms over these; none is the default. *)
let sim_geoms =
  List.init 100 (fun i -> { size = 1024 + (256 * (i / 2)) + 128; block = 64; ways = 1 + (i mod 2) })

(* Absint on cmp costs 0.6-1.5 ms over these 64-byte-block geometries. *)
let certify_geoms =
  List.init 1600 (fun j ->
      { size = 1024 + (128 * (j / 2)); block = 64; ways = 1 + (j mod 2) })

type cls = Sim | Custom | Certify | Lint | Hit

let classes = [ Sim; Custom; Certify; Lint; Hit ]

let cls_name = function
  | Sim -> "sim"
  | Custom -> "custom"
  | Certify -> "certify"
  | Lint -> "lint"
  | Hit -> "hit"

let per_round = function
  | Sim | Custom -> 10
  | Certify | Lint -> 50
  | Hit -> 100

(* Minimum rounds give every class the sample count its tail needs:
   p90 of 200 samples and p99 of 1000 leave at least ten samples above. *)
let min_rounds = 20
let max_rounds = 24

let tail = function
  | Sim | Custom -> ("p90", 0.90)
  | Certify | Lint | Hit -> ("p99", 0.99)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type check =
  | Golden of string  (** canonical response digest must match this key *)
  | Upload of int  (** accepted, clean, at this epoch *)

type req = { line : string; check : check; barrier : bool }
type op = { cls : cls option; reqs : req list }

let next_id = ref 0

let request typ fields =
  incr next_id;
  J.to_string
    (J.Obj
       ([
          ("schema", J.String Serve.Protocol.schema);
          ("id", J.Int !next_id);
          ("type", J.String typ);
        ]
       @ fields))

let layout ?deadline ?profile ~bench ~strategy g key =
  {
    line =
      request "layout-request"
        ([
           ("bench", J.String bench);
           ("strategy", J.String strategy);
           ("cache", geom_json g);
         ]
        @ (match deadline with Some d -> [ ("deadline_ms", J.Int d) ] | None -> [])
        @ match profile with Some p -> [ ("profile", J.String p) ] | None -> []);
    check = Golden key;
    barrier = false;
  }

let lint ~strategy =
  {
    line =
      request "lint-request"
        [ ("bench", J.String main_bench); ("strategy", J.String strategy) ];
    check = Golden ("lint|" ^ strategy);
    barrier = false;
  }

let sim_key s g = Printf.sprintf "sim|%s|%s" s (geom_key g)

(* Per-input profiles of tee's inlined program: the custom class's
   upload payloads.  Variant [v] uploaded [n] times serves the sum of
   its live epochs, so its answer depends on (v, min n window). *)
let upload_variants () =
  let b = Workloads.Registry.find custom_bench in
  let pipe =
    Placement.Pipeline.run (Workloads.Bench.program b)
      ~inputs:(Workloads.Bench.profile_inputs b)
  in
  Array.of_list
    (List.map
       (fun input -> Vm.Profile.profile pipe.Placement.Pipeline.program [ input ])
       (Workloads.Bench.profile_inputs b))

let upload variants ~name ~v ~epoch =
  incr next_id;
  {
    line =
      J.to_string
        (Serve.Protocol.upload_request_of_profile ~id:(J.Int !next_id) ~name
           ~bench:custom_bench ~epoch variants.(v));
    check = Upload epoch;
    barrier = true;
  }

let custom_op variants ~v ~n ~strategy =
  let name = Printf.sprintf "tee-v%d" v in
  [
    upload variants ~name ~v ~epoch:n;
    layout ~bench:custom_bench ~strategy ~profile:name default_geom
      (Printf.sprintf "custom|%d|%d|%s" v (min n epoch_window) strategy);
  ]

(* Set-up: pays each resident program's pipeline, trace and strategy
   maps, the first abstract interpretation and the first upload. *)
let warm_ops variants =
  List.map
    (fun s ->
      { cls = None; reqs = [ layout ~bench:main_bench ~strategy:s default_geom (sim_key s default_geom) ] })
    strategies
  @ List.map
      (fun s ->
        {
          cls = None;
          reqs =
            [ layout ~bench:custom_bench ~strategy:s default_geom ("warm-tee|" ^ s) ];
        })
      strategies
  @ [
      {
        cls = None;
        reqs =
          [
            layout ~deadline:5 ~bench:main_bench ~strategy:"impact"
              warm_certify_geom "certify|warm";
          ];
      };
      {
        cls = None;
        reqs =
          [
            upload variants ~name:"tee-warm" ~v:0 ~epoch:1;
            layout ~bench:custom_bench ~strategy:"impact" ~profile:"tee-warm"
              default_geom "custom-warm";
          ];
      };
    ]

(* The seeded stream: [max_rounds] rounds, each a shuffled multiset of
   [per_round] requests per class.  Sim and certify draw without
   replacement, so neither can be answered from a memo; hits draw from
   triples already served. *)
let stream ~seed variants =
  let rng = Workloads.Rng.create seed in
  let pick l = Workloads.Rng.pick_list rng l in
  let sims =
    ref
      (shuffle rng
         (List.concat_map (fun s -> List.map (fun g -> (s, g)) sim_geoms) strategies))
  in
  let certs = ref (shuffle rng certify_geoms) in
  let take r =
    match !r with
    | x :: rest ->
        r := rest;
        x
    | [] -> failwith "request universe exhausted"
  in
  let served = ref (List.map (fun s -> (s, default_geom)) strategies) in
  let uploads = Array.make (Array.length variants) 0 in
  List.init max_rounds (fun _ ->
      let order =
        shuffle rng
          (List.concat_map (fun c -> List.init (per_round c) (fun _ -> c)) classes)
      in
      List.map
        (fun c ->
          let reqs =
            match c with
            | Sim ->
                let s, g = take sims in
                served := (s, g) :: !served;
                [ layout ~bench:main_bench ~strategy:s g (sim_key s g) ]
            | Hit ->
                let s, g = pick !served in
                [ layout ~bench:main_bench ~strategy:s g (sim_key s g) ]
            | Certify ->
                let g = take certs in
                [
                  layout
                    ~deadline:(1 + Workloads.Rng.int rng 5)
                    ~bench:main_bench ~strategy:"impact" g
                    ("certify|" ^ geom_key g);
                ]
            | Lint -> [ lint ~strategy:(pick strategies) ]
            | Custom ->
                let v = Workloads.Rng.int rng (Array.length variants) in
                uploads.(v) <- uploads.(v) + 1;
                custom_op variants ~v ~n:uploads.(v) ~strategy:(pick strategies)
          in
          { cls = Some c; reqs })
        order)

(* ------------------------------------------------------------------ *)
(* Daemon process                                                      *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let health = request "health" []

let spawn ~exe extra =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args = Array.of_list ([ exe; "-j"; "1"; "-b"; resident ] @ extra) in
  let pid = Unix.create_process exe args in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w }

let read_line d =
  match In_channel.input_line d.ic with
  | Some l -> l
  | None -> failwith "serve.exe closed its output"

(* Send one request (plus the health barrier that flushes a read-only
   one) and return its response and latency. *)
let exchange d ~barrier line =
  let t0 = now () in
  output_string d.oc line;
  output_char d.oc '\n';
  if not barrier then begin
    output_string d.oc health;
    output_char d.oc '\n'
  end;
  flush d.oc;
  let resp = read_line d in
  let dt = now () -. t0 in
  if not barrier then ignore (read_line d);
  (resp, dt)

let stop d =
  output_string d.oc (request "shutdown" []);
  output_char d.oc '\n';
  flush d.oc;
  (try ignore (read_line d) with Failure _ -> ());
  close_out_noerr d.oc;
  close_in_noerr d.ic;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve.exe exited abnormally"

(* ------------------------------------------------------------------ *)
(* Response checks                                                     *)
(* ------------------------------------------------------------------ *)

let canonical resp =
  match J.parse resp with
  | Error e -> failwith ("unparsable response: " ^ e)
  | Ok (J.Obj fields) ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             match (k, v) with
             | ("id" | "trace"), _ -> None
             | "profile", J.Obj p ->
                 (* Custom epochs count uploads so far in the session. *)
                 Some
                   ( k,
                     J.Obj
                       (List.map
                          (fun (pk, pv) -> if pk = "epoch" then (pk, J.Int 0) else (pk, pv))
                          p) )
             | _ -> Some (k, v))
           fields)
  | Ok _ -> failwith "response is not an object"

let digest resp =
  String.sub (Digest.to_hex (Digest.string (J.to_string (canonical resp)))) 0 16

let golden_file = "perfbench/golden/serve.txt"

let load_golden () =
  let t = Hashtbl.create 4096 in
  In_channel.with_open_text golden_file (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun l ->
             match String.split_on_char ' ' l with
             | [ k; d ] -> Hashtbl.replace t k d
             | _ -> ()));
  t

(* [true] when the response is right. *)
let verify golden r resp =
  match r.check with
  | Golden key -> (
      match Hashtbl.find_opt golden key with
      | Some d when d = digest resp -> true
      | Some _ ->
          mismatch "serve %s: response differs from golden" key;
          false
      | None ->
          mismatch "serve %s: no golden response" key;
          false)
  | Upload epoch -> (
      let j = canonical resp in
      let get k = J.member k j in
      match (get "status", get "accepted", get "poisoned", get "epoch") with
      | Some (J.String "ok"), Some (J.Bool true), Some (J.Bool false), Some (J.Int e)
        when e = epoch ->
          true
      | _ ->
          mismatch "serve upload at epoch %d: %s" epoch resp;
          false)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* One request line as sent: its class tag, and its client-observed
   latency when the line had a timed window of its own (not the health
   barriers, stats or shutdown). *)
type line = { tag : cls option; latency : float option }

type session = {
  samples : (cls * float) list;  (** per-op latency, seconds *)
  round_s : float list;  (** service time of each round, at reference speed *)
  rounds : int;
  attempted : int;
  failed : int;
  sent : line list;  (** in send order *)
  rss_mb : float;
  stats : J.t;
}

let run_op golden d (op : op) =
  let total = ref 0.0 and ok = ref true and sent = ref [] in
  List.iter
    (fun r ->
      let resp, dt = exchange d ~barrier:r.barrier r.line in
      total := !total +. dt;
      if not (verify golden r resp) then ok := false;
      (* The health barrier is a request line of its own. *)
      let l = { tag = (match r.check with Upload _ -> None | Golden _ -> op.cls); latency = Some dt } in
      let health = { tag = None; latency = None } in
      sent := (if r.barrier then [ l ] else [ health; l ]) @ !sent)
    op.reqs;
  (!total, !ok, !sent)

let warm ~exe ~extra variants golden =
  let t0 = now () in
  let d = spawn ~exe extra in
  let sent = ref [] and failed = ref 0 in
  List.iter
    (fun op ->
      let _, ok, s = run_op golden d op in
      sent := s @ !sent;
      if not ok then incr failed)
    (warm_ops variants);
  (d, !sent, !failed, now () -. t0)

(* Play the stream on each warmed daemon, one round on each in turn,
   until [seconds] have passed (and at least [min_rounds]); then read
   each daemon's stats and memory and shut it down. *)
let sessions ~seed ~seconds variants golden warmed =
  let stream = stream ~seed variants in
  let live =
    List.map
      (fun (d, sent, failed, _) -> (d, ref [], ref [], ref sent, ref 0, ref failed))
      warmed
  in
  let t0 = now () in
  let cal = ref (calibrate ()) in
  let rec go r = function
    | [] -> r
    | ops :: rest ->
        List.iter
          (fun (d, samples, round_s, sent, attempted, failed) ->
            let rt = ref 0.0 in
            List.iter
              (fun (op : op) ->
                let dt, ok, s = run_op golden d op in
                rt := !rt +. dt;
                sent := s @ !sent;
                incr attempted;
                if not ok then incr failed;
                Option.iter (fun c -> samples := (c, dt) :: !samples) op.cls)
              ops;
            let after = calibrate () in
            round_s := at_reference ~before:!cal ~after !rt :: !round_s;
            cal := after)
          live;
        let r = r + 1 in
        if r >= min_rounds && now () -. t0 >= seconds then r else go r rest
  in
  let rounds = go 0 stream in
  List.map
    (fun (d, samples, round_s, sent, attempted, failed) ->
      let stats, _ = exchange d ~barrier:true (request "stats" []) in
      let rss_mb = peak_rss_mb ~pid:(string_of_int d.pid) () in
      stop d;
      {
        samples = !samples;
        round_s = !round_s;
        rounds;
        attempted = !attempted;
        failed = !failed;
        sent = List.rev !sent @ List.init 2 (fun _ -> { tag = None; latency = None }) (* stats, shutdown *);
        rss_mb;
        stats = canonical stats;
      })
    live

(* The service-side half of the no-memo assertion: nothing was evicted
   from a simulation memo (so every hit found its triple), and exactly
   the certify requests took the cheap tier. *)
let check_stats s =
  let open J in
  let n_certify = List.length (List.filter (fun (c, _) -> c = Certify) s.samples) in
  let evicted =
    match member "evictions" s.stats with
    | Some e -> ( match member "memo" e with Some (Int n) -> n | _ -> -1)
    | None -> -1
  in
  let cheap =
    match member "by_tier" s.stats with
    | Some t -> ( match member "cheapest-strategy" t with Some (Int n) -> n | _ -> 0)
    | None -> -1
  in
  let bad = ref 0 in
  if evicted <> 0 then begin
    mismatch "serve: %d memo evictions (hits may have replayed)" evicted;
    incr bad
  end;
  if cheap <> n_certify + 1 then begin
    mismatch "serve: %d cheap-tier answers for %d certify requests" cheap n_certify;
    incr bad
  end;
  !bad

let class_latencies s =
  List.map
    (fun c ->
      let xs = List.filter_map (fun (c', dt) -> if c' = c then Some (dt *. 1000.0) else None) s.samples in
      (c, List.length xs, percentile xs 0.50, percentile xs (snd (tail c))))
    classes

let print_classes s =
  List.iter
    (fun (c, n, p50, pt) ->
      say "serve class %-8s n=%-5d p50 %.3f ms  %s %.3f ms" (cls_name c) n p50
        (fst (tail c)) pt)
    (class_latencies s)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let setup_reps = 5

(* Start and warm [setup_reps] daemons (all but the last are shut down
   again); set-up time is the median spawn-to-warm time at reference
   speed. *)
let setup ~exe ~extra variants golden =
  let times = ref [] in
  let rec go k before =
    let ((d, _, _, raw) as w) = warm ~exe ~extra variants golden in
    let after = calibrate () in
    times := at_reference ~before ~after raw :: !times;
    if k = 1 then w
    else begin
      stop d;
      go (k - 1) after
    end
  in
  let w = go setup_reps (calibrate ()) in
  (w, median !times)

let run ~exe ~seed ~seconds =
  let golden = load_golden () in
  let variants = upload_variants () in
  let w, setup_s = setup ~exe ~extra:[] variants golden in
  let s = List.hd (sessions ~seed ~seconds variants golden [ w ]) in
  print_classes s;
  say "serve: %d rounds, %d ops, %d failed" s.rounds s.attempted s.failed;
  let failed = s.failed + check_stats s in
  ( s.attempted,
    failed,
    [
      metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MiB" s.rss_mb;
      metric "work_s" "s" (median s.round_s);
    ] )

(* Which request lines' spans must (or must not) contain a replay or an
   abstract interpretation. *)
let check_spans s evs =
  let open Spans in
  let reqs =
    List.filter (fun e -> e.name = "serve.request") evs
    |> List.sort (fun a b -> compare a.ts b.ts)
  in
  if List.length reqs <> List.length s.sent then begin
    mismatch "serve trace: %d request spans for %d lines" (List.length reqs)
      (List.length s.sent);
    1
  end
  else
    let inside r name =
      List.exists
        (fun e ->
          e.name = name && e.tid = r.tid && e.ts >= r.ts && e.ts +. e.dur <= r.ts +. r.dur +. 1.0)
        evs
    in
    List.fold_left2
      (fun bad r { tag; _ } ->
        let sim = inside r "simulate" and abs = inside r "absint.analyze" in
        let ok =
          match tag with
          | Some (Sim | Custom) -> sim && not abs
          | Some Certify -> abs && not sim
          | Some Hit -> not (sim || abs)
          | Some Lint -> not sim
          | None -> true
        in
        if ok then bad
        else begin
          mismatch "serve trace: a %s request %s" (cls_name (Option.get tag))
            (if sim || abs then "did extra work" else "was answered from a memo");
          bad + 1
        end)
      0 reqs s.sent

(* Share of the client-observed latency of the traced daemon's timed
   lines that no daemon stage covers (pipe I/O, line reading, glue),
   plus unmapped stage self time.  Parse, request and emit spans come in
   line order, one each per line. *)
let uncovered s evs other =
  let by name =
    List.filter (fun (e : Spans.event) -> e.name = name) evs
    |> List.sort (fun (a : Spans.event) b -> compare a.ts b.ts)
    |> Array.of_list
  in
  let parse = by "serve.parse" and req = by "serve.request" and emit = by "serve.emit" in
  let lines = Array.of_list s.sent in
  let n = Array.length lines in
  if Array.length parse <> n || Array.length req <> n || Array.length emit <> n then nan
  else begin
    let lat = ref 0.0 and cov = ref 0.0 in
    Array.iteri
      (fun i l ->
        Option.iter
          (fun dt ->
            lat := !lat +. dt;
            cov := !cov +. ((parse.(i).dur +. req.(i).dur +. emit.(i).dur) /. 1e6))
          l.latency)
      lines;
    (other +. !lat -. !cov) /. !lat
  end

let out_dir = ".perfbench"

(* Traced run: an untraced daemon (class latencies, baseline wall) and
   a traced one play the same rounds alternately, so host drift cancels
   in the overhead ratio. *)
let run_traced ~exe ~seed ~seconds ~set ~add =
  let golden = load_golden () in
  let variants = upload_variants () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace_file = Filename.concat out_dir "serve-trace.json" in
  let metrics_file = Filename.concat out_dir "serve-metrics.txt" in
  let extra = [ "--trace-out"; trace_file; "--metrics-out"; metrics_file ] in
  let plain_w = warm ~exe ~extra:[] variants golden in
  let traced_w = warm ~exe ~extra variants golden in
  let plain, traced =
    match sessions ~seed ~seconds variants golden [ plain_w; traced_w ] with
    | [ p; t ] -> (p, t)
    | _ -> assert false
  in
  print_classes plain;
  let evs =
    match J.of_file trace_file with
    | Ok j -> Spans.events_of_json j
    | Error e -> failwith e
  in
  let span_failures = check_spans traced evs in
  let rows, other = Spans.fold evs in
  Hashtbl.iter add rows;
  set "other.share" (uncovered traced evs other);
  let sum l = List.fold_left ( +. ) 0.0 l in
  set "obs.trace_overhead" (sum traced.round_s /. sum plain.round_s);
  List.iter
    (fun (c, n, p50, pt) ->
      let k = "serve." ^ cls_name c in
      set (k ^ ".n") (float n);
      set (k ^ ".p50_ms") p50;
      set (Printf.sprintf "%s.%s_ms" k (fst (tail c))) pt)
    (class_latencies plain);
  set "serve.rps" (float plain.attempted /. sum plain.round_s);
  let evictions =
    match J.member "evictions" plain.stats with
    | Some (J.Obj l) ->
        List.fold_left (fun a (_, v) -> match v with J.Int n -> a + n | _ -> a) 0 l
    | _ -> 0
  in
  set "serve.evictions" (float evictions);
  let counters = Metrics_file.read metrics_file in
  Metrics_file.absint_and_sim counters set;
  let failed =
    plain.failed + traced.failed + check_stats plain + check_stats traced + span_failures
  in
  (plain.attempted + traced.attempted, failed)

(* ------------------------------------------------------------------ *)
(* Golden regeneration                                                 *)
(* ------------------------------------------------------------------ *)

(* Ask every request of the universe once and record each canonical
   response digest; also return the canonical cmp layout response the
   JSON micro-benchmark parses. *)
let regen ~exe =
  let variants = upload_variants () in
  let d = spawn ~exe [] in
  let out = Hashtbl.create 4096 and fixture = ref "" in
  let no_golden = Hashtbl.create 1 in
  let run (r : req) =
    let resp, _ = exchange d ~barrier:r.barrier r.line in
    match r.check with
    | Golden k ->
        Hashtbl.replace out k (digest resp);
        if k = sim_key "impact" default_geom then
          fixture := J.to_string (canonical resp)
    | Upload _ -> if not (verify no_golden r resp) then failwith "upload refused"
  in
  List.iter (fun (op : op) -> List.iter run op.reqs) (warm_ops variants);
  List.iter
    (fun s ->
      List.iter (fun g -> run (layout ~bench:main_bench ~strategy:s g (sim_key s g))) sim_geoms)
    strategies;
  List.iter
    (fun g ->
      run (layout ~deadline:5 ~bench:main_bench ~strategy:"impact" g ("certify|" ^ geom_key g)))
    certify_geoms;
  List.iter (fun s -> run (lint ~strategy:s)) strategies;
  Array.iteri
    (fun v _ ->
      for n = 1 to epoch_window do
        List.iteri
          (fun i s ->
            let reqs = custom_op variants ~v ~n ~strategy:s in
            List.iter run (if i = 0 then reqs else List.tl reqs))
          strategies
      done)
    variants;
  stop d;
  let lines = Hashtbl.fold (fun k d acc -> (k ^ " " ^ d) :: acc) out [] in
  (List.sort compare lines, !fixture)
