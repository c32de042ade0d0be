(* Abstract interpretation of instruction-cache states over the whole
   program: Ferdinand/Wilhelm-style Must and May age analyses plus a
   persistence (first-miss) classification scoped by the natural-loop
   forest, all run as {!Dataflow.solve_values} instances over the
   {!Cachedom} age-vector lattice.

   The flow graph is the context-insensitive supergraph: one node per
   (function, block), intra-function edges from the terminators, a call
   edge from every [Call] block to its callee's entry, and return edges
   from every [Ret] block of the callee to the call site's return
   label.  Its path set is a superset of the real (call-stack-matched)
   executions, so joins only weaken facts: any "guaranteed hit" or
   "guaranteed miss" it proves holds on every real run that starts, as
   the boundary value says, from an empty cache.

   Persistence does not need the solver at all: a line is persistent in
   a scope when the distinct lines the scope can fetch into its cache
   set number at most [ways] — then one stay in the scope evicts
   nothing it loaded, so the line misses at most once per entry.  A
   scope is a natural-loop body plus every function transitively
   callable from it (execution inside the loop never leaves that block
   set).  Only syntactic body blocks are classified first-miss, against
   the outermost enclosing scope that protects the line's set.

   Classifications are claims, so anything unverifiable is gated to
   Unclassified with a recorded reason instead of guessed at: sectored
   or partial fills (tag presence no longer implies whole-line
   residence), prefetch (extra fills the transfer does not model),
   associativity beyond the byte-age encoding, a capped (pre-fixpoint)
   solve, and irreducible functions (the `Loops` witnesses), which
   degrade per function. *)

open Ir

type cls = Hit | Miss | First_miss of int | Unknown

type scope = {
  s_fid : int;
  s_header : Cfg.label;
  s_depth : int;
  s_body : int array;  (* gids of the syntactic loop body, sorted *)
  s_header_gid : int;
  s_persistent : Bytes.t;  (* per cache set: '\001' = scope fits *)
}

type t = {
  prog : Prog.program;
  map : Placement.Address_map.t;
  config : Icache.Config.t;
  universe : Cachedom.universe option;  (* [None] iff gated before solving *)
  nnodes : int;
  offsets : int array;
  node_fid : int array;
  node_label : int array;
  naccesses : int array;  (* line fetches per node, valid even when gated *)
  accesses : int array array;  (* dense line ids per node; [||] when gated *)
  cls : cls array array;
  reachable : bool array;
  scopes : scope array;
  gated : string option;
  capped : bool;
  consistent : bool;  (* no access both must-hit and may-absent *)
  must_iterations : int;
  may_iterations : int;
  warnings : Diag.t list;
}

let blocks_classified_total =
  Obs.Metrics.counter "absint.blocks_classified"
    ~help:"blocks whose every line access got a definite classification"

let must_iterations_total =
  Obs.Metrics.counter "absint.must_iterations"
    ~help:"worklist pops of the Must age analysis"

let may_iterations_total =
  Obs.Metrics.counter "absint.may_iterations"
    ~help:"worklist pops of the May age analysis"

let gid t fid label = t.offsets.(fid) + label

(* Absolute line numbers fetched by a block, consecutive duplicates
   collapsed (a 4-byte word sequence crosses a line at most once per
   line). *)
let block_lines (config : Icache.Config.t) ~addr ~words =
  let lines = ref [] in
  for w = words - 1 downto 0 do
    let l = (addr + (w * Icache.Config.word_bytes)) / config.block in
    match !lines with
    | hd :: _ when hd = l -> ()
    | _ -> lines := l :: !lines
  done;
  !lines

let default_max_iters nnodes = 1_000 + (100 * nnodes)

let analyze ?max_iters (config : Icache.Config.t)
    (map : Placement.Address_map.t) (prog : Prog.program) : t =
  Obs.Span.with_ ~stage:"absint.analyze" @@ fun () ->
  let funcs = prog.Prog.funcs in
  let nfuncs = Array.length funcs in
  let offsets = Array.make nfuncs 0 in
  let nnodes = ref 0 in
  for fid = 0 to nfuncs - 1 do
    offsets.(fid) <- !nnodes;
    nnodes := !nnodes + Array.length funcs.(fid).Prog.blocks
  done;
  let nnodes = !nnodes in
  let node_fid = Array.make nnodes 0 and node_label = Array.make nnodes 0 in
  for fid = 0 to nfuncs - 1 do
    for l = 0 to Array.length funcs.(fid).Prog.blocks - 1 do
      node_fid.(offsets.(fid) + l) <- fid;
      node_label.(offsets.(fid) + l) <- l
    done
  done;
  let lines_of_node =
    Array.init nnodes (fun v ->
        let fid = node_fid.(v) and l = node_label.(v) in
        block_lines config
          ~addr:map.Placement.Address_map.block_addr.(fid).(l)
          ~words:map.Placement.Address_map.block_words.(fid).(l))
  in
  let naccesses = Array.map List.length lines_of_node in
  (* Supergraph edges. *)
  let succs = Array.make nnodes [] and preds = Array.make nnodes [] in
  let add_edge u v =
    succs.(u) <- v :: succs.(u);
    preds.(v) <- u :: preds.(v)
  in
  let ret_gids fid =
    let acc = ref [] in
    Array.iteri
      (fun l (b : Cfg.block) ->
        match b.Cfg.term with
        | Cfg.Ret _ -> acc := (offsets.(fid) + l) :: !acc
        | _ -> ())
      funcs.(fid).Prog.blocks;
    !acc
  in
  for v = nnodes - 1 downto 0 do
    let fid = node_fid.(v) and l = node_label.(v) in
    let b = funcs.(fid).Prog.blocks.(l) in
    match b.Cfg.term with
    | Cfg.Call { callee; ret_to; _ } -> (
        match Prog.func_index prog callee with
        | callee_fid ->
            add_edge v offsets.(callee_fid);
            List.iter (fun r -> add_edge r (offsets.(fid) + ret_to))
              (ret_gids callee_fid)
        | exception _ ->
            (* unresolved callee: keep the graph connected through the
               return label, as the fall-through approximation *)
            add_edge v (offsets.(fid) + ret_to))
    | _ ->
        List.iter (fun s -> add_edge v (offsets.(fid) + s)) (Cfg.successors b)
  done;
  let entry_gid = offsets.(prog.Prog.entry) in
  let reachable = Array.make nnodes false in
  let stack = ref [ entry_gid ] in
  reachable.(entry_gid) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        List.iter
          (fun s ->
            if not reachable.(s) then begin
              reachable.(s) <- true;
              stack := s :: !stack
            end)
          succs.(v)
  done;
  let cls = Array.map (fun n -> Array.make n Unknown) naccesses in
  let ways = Icache.Config.ways_of config in
  let gate reason =
    {
      prog;
      map;
      config;
      universe = None;
      nnodes;
      offsets;
      node_fid;
      node_label;
      naccesses;
      accesses = Array.make nnodes [||];
      cls;
      reachable;
      scopes = [||];
      gated = Some reason;
      capped = false;
      consistent = true;
      must_iterations = 0;
      may_iterations = 0;
      warnings =
        [
          Diag.make ~severity:Warning ~stage:Lint
            "absint: analysis gated to unclassified (%s)" reason;
        ];
    }
  in
  Obs.Span.add_attr "nodes" (string_of_int nnodes);
  match config.Icache.Config.fill with
  | Sectored _ | Partial ->
      gate
        (Printf.sprintf "fill=%s: only whole-block fill is modeled"
           (match config.Icache.Config.fill with
           | Sectored n -> Printf.sprintf "sectored(%d)" n
           | Partial -> "partial"
           | Whole -> "whole"))
  | Whole when config.Icache.Config.prefetch ->
      gate "prefetch: extra fills are not modeled"
  | Whole when ways > Cachedom.max_ways ->
      gate
        (Printf.sprintf "associativity %d exceeds the %d-way age encoding"
           ways Cachedom.max_ways)
  | Whole ->
      let u =
        Cachedom.universe config (List.concat (Array.to_list lines_of_node))
      in
      let ids = Cachedom.id_table u in
      let accesses =
        Array.map
          (fun ls ->
            Array.of_list (List.map (fun l -> Hashtbl.find ids l) ls))
          lines_of_node
      in
      let max_iters =
        match max_iters with Some m -> m | None -> default_max_iters nnodes
      in
      let solve lattice access =
        Dataflow.solve_values ~max_iters
          {
            Dataflow.v_nnodes = nnodes;
            v_succs = (fun v -> succs.(v));
            v_preds = (fun v -> preds.(v));
            v_boundary = [ entry_gid ];
            v_boundary_value = Cachedom.top u;
            v_lattice = lattice;
            v_transfer =
              (fun v ~src ~dst ->
                Cachedom.assign ~dst src;
                Array.iter (fun l -> access u dst l) accesses.(v));
          }
      in
      let must =
        Obs.Span.with_ ~stage:"absint.must" @@ fun _ ->
        solve (Cachedom.must_lattice u) Cachedom.access_must
      in
      let may =
        Obs.Span.with_ ~stage:"absint.may" @@ fun _ ->
        solve (Cachedom.may_lattice u) Cachedom.access_may
      in
      Obs.Metrics.incr ~by:must.Dataflow.v_iterations must_iterations_total;
      Obs.Metrics.incr ~by:may.Dataflow.v_iterations may_iterations_total;
      let capped = must.Dataflow.v_capped || may.Dataflow.v_capped in
      if capped then
        let t =
          gate
            (Printf.sprintf
               "iteration cap %d hit before the fixpoint (must %d, may %d \
                pops)"
               max_iters must.Dataflow.v_iterations may.Dataflow.v_iterations)
        in
        {
          t with
          universe = Some u;
          accesses;
          capped = true;
          must_iterations = must.Dataflow.v_iterations;
          may_iterations = may.Dataflow.v_iterations;
          warnings =
            t.warnings @ must.Dataflow.v_warnings @ may.Dataflow.v_warnings;
        }
      else begin
        (* Natural-loop scopes, per reducible function.  A scope's
           conflict closure is its body plus every function transitively
           callable from it (the blocks one stay can execute).  Its
           first-miss MEMBERS are the body plus the PRIVATE part of that
           closure: functions all of whose call sites lie in the body or
           in other private members, so their blocks never execute
           outside a stay and the once-per-entry guarantee extends to
           them. *)
        let warnings = ref [] in
        let irreducible = Array.make nfuncs false in
        let call_sites = Array.make nfuncs [] in
        for v = 0 to nnodes - 1 do
          match
            Cfg.callee funcs.(node_fid.(v)).Prog.blocks.(node_label.(v))
          with
          | Some callee -> (
              match Prog.func_index prog callee with
              | cf -> call_sites.(cf) <- v :: call_sites.(cf)
              | exception _ -> ())
          | None -> ()
        done;
        let scopes = ref [] and nscopes = ref 0 in
        for fid = 0 to nfuncs - 1 do
          let loops = Loops.of_func funcs.(fid) in
          if not loops.Loops.reducible then begin
            irreducible.(fid) <- true;
            warnings :=
              Diag.make ~severity:Warning ~stage:Lint
                ~func:funcs.(fid).Prog.name
                "absint: irreducible control flow; blocks degrade to \
                 unclassified"
              :: !warnings
          end
          else
            Array.iteri
              (fun _li (loop : Loops.loop) ->
                let body_gids =
                  List.map (fun l -> offsets.(fid) + l) loop.Loops.body
                in
                let in_body = Hashtbl.create 16 in
                List.iter (fun g -> Hashtbl.replace in_body g ()) body_gids;
                (* Transitive callee closure of the body's call sites. *)
                let fids = Hashtbl.create 8 in
                let pending = ref [] in
                let visit_calls f gids =
                  List.iter
                    (fun g ->
                      match
                        Cfg.callee funcs.(f).Prog.blocks.(node_label.(g))
                      with
                      | Some callee -> (
                          match Prog.func_index prog callee with
                          | cf ->
                              if not (Hashtbl.mem fids cf) then begin
                                Hashtbl.replace fids cf ();
                                pending := cf :: !pending
                              end
                          | exception _ -> ())
                      | None -> ())
                    gids
                in
                visit_calls fid body_gids;
                while !pending <> [] do
                  match !pending with
                  | [] -> ()
                  | cf :: rest ->
                      pending := rest;
                      let n = Array.length funcs.(cf).Prog.blocks in
                      visit_calls cf (List.init n (fun l -> offsets.(cf) + l))
                done;
                let closure_fids =
                  Hashtbl.fold (fun cf () acc -> cf :: acc) fids []
                in
                let closure_gids =
                  List.fold_left
                    (fun acc cf ->
                      let n = Array.length funcs.(cf).Prog.blocks in
                      List.init n (fun l -> offsets.(cf) + l) @ acc)
                    body_gids closure_fids
                in
                (* Greatest fixpoint of "private": drop any closure
                   function with a call site outside the body and
                   outside every still-private function. *)
                let private_ = Hashtbl.copy fids in
                Hashtbl.remove private_ prog.Prog.entry;
                let changed = ref true in
                while !changed do
                  changed := false;
                  Hashtbl.iter
                    (fun cf () ->
                      let exposed =
                        List.exists
                          (fun site ->
                            (not (Hashtbl.mem in_body site))
                            && not (Hashtbl.mem private_ node_fid.(site)))
                          call_sites.(cf)
                      in
                      if exposed then begin
                        Hashtbl.remove private_ cf;
                        changed := true
                      end)
                    (Hashtbl.copy private_)
                done;
                let member_gids =
                  Hashtbl.fold
                    (fun cf () acc ->
                      let n = Array.length funcs.(cf).Prog.blocks in
                      List.init n (fun l -> offsets.(cf) + l) @ acc)
                    private_ body_gids
                in
                (* Distinct lines per cache set across the closure. *)
                let seen = Bytes.make u.Cachedom.nlines '\000' in
                let per_set = Array.make u.Cachedom.nsets 0 in
                List.iter
                  (fun g ->
                    Array.iter
                      (fun id ->
                        if Bytes.get seen id = '\000' then begin
                          Bytes.set seen id '\001';
                          per_set.(u.Cachedom.set_of.(id)) <-
                            per_set.(u.Cachedom.set_of.(id)) + 1
                        end)
                      accesses.(g))
                  closure_gids;
                let persistent = Bytes.make u.Cachedom.nsets '\000' in
                for s = 0 to u.Cachedom.nsets - 1 do
                  if per_set.(s) <= ways then Bytes.set persistent s '\001'
                done;
                incr nscopes;
                scopes :=
                  {
                    s_fid = fid;
                    s_header = loop.Loops.header;
                    s_depth = loop.Loops.depth;
                    s_body =
                      Array.of_list (List.sort_uniq compare member_gids);
                    s_header_gid = offsets.(fid) + loop.Loops.header;
                    s_persistent = persistent;
                  }
                  :: !scopes)
              loops.Loops.loops
        done;
        let scopes = Array.of_list (List.rev !scopes) in
        (* Per-node candidate scopes: creation order puts a function's
           outer loops first; prefer scopes of OTHER functions (the
           dynamically enclosing caller loops) over a block's own. *)
        let candidates = Array.make nnodes [] in
        Array.iteri
          (fun si s ->
            Array.iter
              (fun g -> candidates.(g) <- si :: candidates.(g))
              s.s_body)
          scopes;
        Array.iteri
          (fun v c ->
            candidates.(v) <-
              List.stable_sort
                (fun a b ->
                  let own si = if scopes.(si).s_fid = node_fid.(v) then 1 else 0 in
                  match compare (own a) (own b) with
                  | 0 -> compare (scopes.(a).s_depth, a) (scopes.(b).s_depth, b)
                  | c -> c)
                (List.rev c))
          candidates;
        let persistent_scope v line_id =
          let set = u.Cachedom.set_of.(line_id) in
          List.find_opt
            (fun si -> Bytes.get scopes.(si).s_persistent set = '\001')
            candidates.(v)
        in
        let consistent = ref true in
        let blocks_classified = ref 0 in
        ( Obs.Span.with_ ~stage:"absint.classify" @@ fun () ->
          for v = 0 to nnodes - 1 do
            if reachable.(v) && not irreducible.(node_fid.(v)) then begin
              let m = Cachedom.copy must.Dataflow.v_in.(v) in
              let y = Cachedom.copy may.Dataflow.v_in.(v) in
              let all = ref (naccesses.(v) > 0) in
              Array.iteri
                (fun i l ->
                  let must_hit = Cachedom.age m l < ways in
                  let may_absent = Cachedom.age y l = ways in
                  if must_hit && may_absent then begin
                    consistent := false;
                    all := false
                  end
                  else if must_hit then cls.(v).(i) <- Hit
                  else if may_absent then cls.(v).(i) <- Miss
                  else begin
                    match persistent_scope v l with
                    | Some si -> cls.(v).(i) <- First_miss si
                    | None -> all := false
                  end;
                  Cachedom.access_must u m l;
                  Cachedom.access_may u y l)
                accesses.(v);
              if !all then incr blocks_classified
            end
          done );
        Obs.Metrics.incr ~by:!blocks_classified blocks_classified_total;
        Obs.Span.add_attr "classified_blocks"
          (string_of_int !blocks_classified);
        {
          prog;
          map;
          config;
          universe = Some u;
          nnodes;
          offsets;
          node_fid;
          node_label;
          naccesses;
          accesses;
          cls;
          reachable;
          scopes;
          gated = None;
          capped = false;
          consistent = !consistent;
          must_iterations = must.Dataflow.v_iterations;
          may_iterations = may.Dataflow.v_iterations;
          warnings = List.rev !warnings;
        }
      end

(* Static (unweighted) classification census. *)

type totals = {
  t_hit : int;
  t_miss : int;
  t_first : int;
  t_unknown : int;
  t_accesses : int;
  t_blocks : int;
  t_blocks_classified : int;
}

let totals (t : t) : totals =
  let hit = ref 0 and miss = ref 0 and first = ref 0 and unknown = ref 0 in
  let blocks = ref 0 and classified = ref 0 in
  Array.iteri
    (fun v c ->
      if t.reachable.(v) then begin
        incr blocks;
        let all = ref (Array.length c > 0) in
        Array.iter
          (fun k ->
            match k with
            | Hit -> incr hit
            | Miss -> incr miss
            | First_miss _ -> incr first
            | Unknown ->
                incr unknown;
                all := false)
          c;
        if !all then incr classified
      end)
    t.cls;
  {
    t_hit = !hit;
    t_miss = !miss;
    t_first = !first;
    t_unknown = !unknown;
    t_accesses = !hit + !miss + !first + !unknown;
    t_blocks = !blocks;
    t_blocks_classified = !classified;
  }

(* Sound miss-count interval under a block-execution count function.

   lo counts guaranteed misses only.  hi charges every guaranteed miss
   and every unclassified access in full, and each (scope, line)
   first-miss group at most min(its total weight, the scope header's
   count) — stays in a scope number at most the header's executions.
   Both bounds hold for any execution whose per-block counts match
   [counts]. *)

type interval = {
  lo : int;
  hi : int;
  accesses : int;  (* weighted line fetches *)
  fetches : int;  (* weighted instruction words, for miss-ratio bounds *)
  w_hit : int;
  w_miss : int;
  w_first : int;
  w_unknown : int;
}

let interval ?entries (t : t) ~(counts : int -> Cfg.label -> int) : interval =
  let entries =
    match entries with
    | Some f -> f
    | None -> fun si -> counts t.scopes.(si).s_fid t.scopes.(si).s_header
  in
  let lo = ref 0 and hi = ref 0 in
  let accesses = ref 0 and fetches = ref 0 in
  let w_hit = ref 0 and w_miss = ref 0 and w_first = ref 0 in
  let w_unknown = ref 0 in
  let groups = Hashtbl.create 64 in
  for v = 0 to t.nnodes - 1 do
    let fid = t.node_fid.(v) and label = t.node_label.(v) in
    let c = counts fid label in
    if c > 0 then begin
      accesses := !accesses + (c * t.naccesses.(v));
      fetches :=
        !fetches + (c * t.map.Placement.Address_map.block_words.(fid).(label));
      Array.iteri
        (fun i k ->
          match k with
          | Hit -> w_hit := !w_hit + c
          | Miss ->
              w_miss := !w_miss + c;
              lo := !lo + c;
              hi := !hi + c
          | Unknown ->
              w_unknown := !w_unknown + c;
              hi := !hi + c
          | First_miss si ->
              w_first := !w_first + c;
              let key =
                ( si,
                  if Array.length t.accesses.(v) = 0 then i
                  else t.accesses.(v).(i) )
              in
              Hashtbl.replace groups key
                (c + Option.value ~default:0 (Hashtbl.find_opt groups key)))
        t.cls.(v)
    end
  done;
  Hashtbl.iter (fun (si, _line) w -> hi := !hi + min w (entries si)) groups;
  {
    lo = !lo;
    hi = !hi;
    accesses = !accesses;
    fetches = !fetches;
    w_hit = !w_hit;
    w_miss = !w_miss;
    w_first = !w_first;
    w_unknown = !w_unknown;
  }

(* Stay bound per scope from profile arc weights: a stay's first header
   execution arrives over an arc whose source is outside the loop body
   (or, for a header at block 0, at function invocation), so summing
   those arcs over-approximates the number of stays. *)
let profile_entries (t : t) ~(weights : int -> Placement.Weight.cfg_weights)
    (si : int) : int =
  let s = t.scopes.(si) in
  let w = weights s.s_fid in
  let in_own_body u =
    let g = t.offsets.(s.s_fid) + u in
    let body = s.s_body in
    let rec bsearch lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        if body.(mid) = g then true
        else if body.(mid) < g then bsearch (mid + 1) hi
        else bsearch lo mid
    in
    bsearch 0 (Array.length body)
  in
  let from_outside =
    List.fold_left
      (fun acc (u, c) -> if in_own_body u then acc else acc + c)
      0
      (w.Placement.Weight.arcs_in s.s_header)
  in
  from_outside
  + (if s.s_header = 0 then w.Placement.Weight.func_weight else 0)

(* Exact stay counting over an executed block stream: feed the blocks in
   order; a scope is entered when its header runs and the previous block
   was not one of its members. *)

type tracker = {
  tr : t;
  headers : (int, int list) Hashtbl.t;  (* header gid -> scope indices *)
  member : Bytes.t array;  (* scope -> per-gid membership *)
  counts : int array;  (* per-gid execution counts, a byproduct *)
  entered : int array;  (* per-scope stay count *)
  mutable prev : int;
}

let tracker (t : t) : tracker =
  let headers = Hashtbl.create 16 in
  Array.iteri
    (fun si s ->
      Hashtbl.replace headers s.s_header_gid
        (si
        :: Option.value ~default:[] (Hashtbl.find_opt headers s.s_header_gid)))
    t.scopes;
  let member =
    Array.map
      (fun s ->
        let m = Bytes.make t.nnodes '\000' in
        Array.iter (fun g -> Bytes.set m g '\001') s.s_body;
        m)
      t.scopes
  in
  {
    tr = t;
    headers;
    member;
    counts = Array.make t.nnodes 0;
    entered = Array.make (Array.length t.scopes) 0;
    prev = -1;
  }

let track (k : tracker) (fid : int) (label : Cfg.label) : unit =
  let g = k.tr.offsets.(fid) + label in
  k.counts.(g) <- k.counts.(g) + 1;
  (match Hashtbl.find_opt k.headers g with
  | None -> ()
  | Some sis ->
      List.iter
        (fun si ->
          if k.prev < 0 || Bytes.get k.member.(si) k.prev = '\000' then
            k.entered.(si) <- k.entered.(si) + 1)
        sis);
  k.prev <- g

let tracked_counts (k : tracker) (fid : int) (label : Cfg.label) : int =
  k.counts.(k.tr.offsets.(fid) + label)

let tracked_entries (k : tracker) (si : int) : int = k.entered.(si)
