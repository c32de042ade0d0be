(* Differential soundness oracle of [Analysis.Absint].

   Replays a trace against a fresh cache under every configuration and
   turns any violated claim into a [Simulation]-stage error diag: the
   fuzzer treats these like any other differential failure, so a
   shrinker can carry the violation down to a minimal program. *)

open Analysis

(* Two small geometries that force conflicts on fuzz-sized programs. *)
let default_configs =
  [
    Icache.Config.make ~size:512 ~block:16 ();
    Icache.Config.make ~size:512 ~block:16 ~assoc:(Ways 2) ();
  ]

let check ?(configs = default_configs) ~strategy (p : Absint.program)
    (map : Placement.Address_map.t) (trace : Sim.Trace.t) : Ir.Diag.t list =
  let prog = p.Absint.prog in
  let diags = ref [] in
  let fail fmt =
    Fmt.kstr
      (fun message ->
        diags :=
          Ir.Diag.make ~severity:Ir.Diag.Error ~stage:Ir.Diag.Simulation
            ~strategy "%s" message
          :: !diags)
      fmt
  in
  List.iter
    (fun config ->
      let t = Absint.analyze config map p in
      if not t.Absint.consistent then
        fail "absint oracle: inconsistent domains at %s (must-hit and \
              may-absent on one access)"
          (Icache.Config.describe config);
      match (t.Absint.gated, t.Absint.universe) with
      | Some _, _ | _, None -> ()
      | None, Some u ->
          let k = Absint.tracker p in
          let cache = Icache.Cache.create config in
          let line_bytes = config.Icache.Config.block in
          let fm_misses = Hashtbl.create 32 in
          let missed = ref [] in
          Sim.Trace.iter_blocks
            (fun fid l ->
              Absint.track k fid l;
              let addr = map.Placement.Address_map.block_addr.(fid).(l) in
              let words = map.Placement.Address_map.block_words.(fid).(l) in
              missed := [];
              if words > 0 then
                Icache.Cache.access_run cache ~addr ~words
                  ~on_miss:(fun ~at ~word_in_block:_ ~fetched_words:_ ->
                    let line =
                      (addr + (at * Icache.Config.word_bytes)) / line_bytes
                    in
                    match !missed with
                    | hd :: _ when hd = line -> ()
                    | _ -> missed := line :: !missed);
              let missed = !missed in
              let g = Absint.gid t fid l in
              Array.iteri
                (fun i id ->
                  let line = u.Cachedom.line_no.(id) in
                  let did_miss = List.mem line missed in
                  match t.Absint.cls.(g).(i) with
                  | Absint.Hit ->
                      if did_miss then
                        fail
                          "absint oracle: always-hit line %d missed at \
                           %s b%d (access %d) under %s"
                          line prog.Ir.Prog.funcs.(fid).Ir.Prog.name l i
                          (Icache.Config.describe config)
                  | Absint.Miss ->
                      if not did_miss then
                        fail
                          "absint oracle: always-miss line %d hit at %s \
                           b%d (access %d) under %s"
                          line prog.Ir.Prog.funcs.(fid).Ir.Prog.name l i
                          (Icache.Config.describe config)
                  | Absint.First_miss si ->
                      if did_miss then
                        let key = (si, id) in
                        Hashtbl.replace fm_misses key
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt fm_misses key))
                  | Absint.Unknown -> ())
                t.Absint.accesses.(g))
            trace;
          Hashtbl.iter
            (fun (si, id) misses ->
              let entries = Absint.tracked_entries k si in
              if misses > entries then
                fail
                  "absint oracle: first-miss line %d missed %d times but \
                   its scope (%s b%d) was entered %d times under %s"
                  u.Cachedom.line_no.(id) misses
                  prog.Ir.Prog.funcs.(p.Absint.scopes.(si).Absint.s_fid)
                    .Ir.Prog.name
                  p.Absint.scopes.(si).Absint.s_header entries
                  (Icache.Config.describe config))
            fm_misses;
          let iv =
            Absint.interval t ~counts:(Absint.tracked_counts k)
              ~entries:(Absint.tracked_entries k)
          in
          let misses = Icache.Cache.misses cache in
          if misses < iv.Absint.lo || misses > iv.Absint.hi then
            fail
              "absint oracle: simulated %d misses outside certified [%d, \
               %d] under %s"
              misses iv.Absint.lo iv.Absint.hi
              (Icache.Config.describe config))
    configs;
  List.rev !diags
