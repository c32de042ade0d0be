(* Named profile store: weighted float accumulators per epoch, a
   staleness window that expires old epochs as the current one advances,
   and a materialize-then-validate step whose failure marks the profile
   poisoned and pins readers to the last flow-conserving snapshot. *)

let evictions =
  Obs.Metrics.counter "serve.profile_evictions"
    ~help:"Named profiles dropped from the store by the LRU cap"

(* One epoch's accumulated (weighted) counts.  Floats so fractional
   upload weights merge exactly; rounding happens once, at
   materialization. *)
type acc = {
  blocks : (int * int, float) Hashtbl.t;
  arcs : (int * int * int, float) Hashtbl.t;
  entries : (int, float) Hashtbl.t;
  calls : (int * int * int, float) Hashtbl.t;
}

let acc_create () =
  {
    blocks = Hashtbl.create 64;
    arcs = Hashtbl.create 64;
    entries = Hashtbl.create 16;
    calls = Hashtbl.create 16;
  }

let acc_add tbl k v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  Hashtbl.replace tbl k (prev +. v)

type profile = {
  name : string;
  bench : string;
  prog : Ir.Prog.program;  (** the bench's inlined program *)
  window : int;
  mutable current : int;
  mutable epochs : (int * acc) list;  (** newest epoch first *)
  mutable revision : int;
  mutable uploads : int;
  mutable flow_violations : int;  (** of the latest materialization *)
  mutable last_good : (int * int * Vm.Profile.t) option;
      (** epoch, revision, snapshot; the latest materialization itself
          exactly when [flow_violations = 0] *)
}

(* Only accepted uploads create a profile, so a profile always has a
   materialization: poisoned when it broke flow conservation. *)
let poisoned p = p.flow_violations > 0

type t = {
  lock : Mutex.t;  (* guards [profiles] and every profile in it *)
  window : int;
  profiles : (string, profile) Placement.Bounded.t;
}

let create ~cap ?(window = 4) () =
  if window < 1 then invalid_arg "Store.create: window must be >= 1";
  {
    lock = Mutex.create ();
    window;
    profiles = Placement.Bounded.create ~counter:evictions cap;
  }

(* ---- structural validation against the bench's program ---- *)

let invalidf fmt = Printf.ksprintf failwith fmt

let validate_upload (prog : Ir.Prog.program) (u : Protocol.upload) =
  let nfuncs = Array.length prog.funcs in
  let func what fid =
    if fid < 0 || fid >= nfuncs then
      invalidf "%s: function id %d out of range (%d functions)" what fid nfuncs;
    prog.funcs.(fid)
  in
  let label what (f : Ir.Prog.func) fid lbl =
    if lbl < 0 || lbl >= Array.length f.blocks then
      invalidf "%s: block %d out of range for function %d" what lbl fid
  in
  let count what c =
    if not (Float.is_finite c) || c < 0.0 then
      invalidf "%s: count %g is not a finite non-negative number" what c
  in
  List.iter
    (fun (fid, lbl, c) ->
      let f = func "blocks" fid in
      label "blocks" f fid lbl;
      count "blocks" c)
    u.Protocol.blocks;
  List.iter
    (fun (fid, src, dst, c) ->
      let f = func "arcs" fid in
      label "arcs" f fid src;
      label "arcs" f fid dst;
      count "arcs" c;
      if not (List.mem dst (Ir.Cfg.successors f.blocks.(src))) then
        invalidf "arcs: %d -> %d is not a control-flow arc of function %d"
          src dst fid)
    u.arcs;
  List.iter
    (fun (fid, c) ->
      ignore (func "entries" fid);
      count "entries" c)
    u.entries;
  List.iter
    (fun (fid, blk, callee, c) ->
      let f = func "calls" fid in
      label "calls" f fid blk;
      ignore (func "calls" callee);
      count "calls" c;
      let ok =
        match Ir.Cfg.callee f.blocks.(blk) with
        | Some name -> (
            match Hashtbl.find_opt prog.by_name name with
            | Some i -> i = callee
            | None -> false)
        | None -> false
      in
      if not ok then
        invalidf "calls: block %d of function %d does not call function %d"
          blk fid callee)
    u.calls

(* ---- materialization ---- *)

let materialize (prog : Ir.Prog.program) (epochs : (int * acc) list) :
    Vm.Profile.t =
  let p = Vm.Profile.create prog in
  let round v = int_of_float (Float.round v) in
  let sum get =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (_, a) -> Hashtbl.iter (fun k v -> acc_add tbl k v) (get a))
      epochs;
    tbl
  in
  Hashtbl.iter
    (fun (fid, lbl) v -> p.Vm.Profile.funcs.(fid).block_counts.(lbl) <- round v)
    (sum (fun a -> a.blocks));
  Hashtbl.iter
    (fun (fid, src, dst) v ->
      let c = round v in
      if c <> 0 then Hashtbl.replace p.funcs.(fid).arc_counts.(src) dst c)
    (sum (fun a -> a.arcs));
  Hashtbl.iter
    (fun fid v -> p.entry_counts.(fid) <- round v)
    (sum (fun a -> a.entries));
  Hashtbl.iter
    (fun (fid, blk, callee) v ->
      let c = round v in
      if c <> 0 then Hashtbl.replace p.site_counts (fid, blk, callee) c)
    (sum (fun a -> a.calls));
  p.runs <- 1;
  p

(* ---- upload ---- *)

type outcome = {
  accepted : bool;
  reason : string option;  (** ["stale-epoch"] when [accepted] is false *)
  epoch : int;
  min_live : int;
  epochs_live : int;
  poisoned : bool;
  flow_violations : int;
  revision : int;  (** profile revision after the upload *)
}

let min_live_epoch p = max 0 (p.current - p.window + 1)

let outcome_of p ~accepted ~reason epoch =
  {
    accepted;
    reason;
    epoch;
    min_live = min_live_epoch p;
    epochs_live = List.length p.epochs;
    poisoned = poisoned p;
    flow_violations = p.flow_violations;
    revision = p.revision;
  }

(* A new profile is built aside and only inserted (evicting at the cap)
   once the upload is accepted: a rejected upload leaves no trace.  An
   existing profile counts as used once its bench matches, even if the
   upload is then rejected. *)
let upload t ~(prog : Ir.Prog.program) (u : Protocol.upload) : outcome =
  Mutex.protect t.lock @@ fun () ->
  let p, is_new =
    match Placement.Bounded.peek t.profiles u.Protocol.profile with
    | Some p -> (p, false)
    | None ->
        ( {
            name = u.profile;
            bench = u.bench;
            prog;
            window = t.window;
            current = 0;
            epochs = [];
            revision = 0;
            uploads = 0;
            flow_violations = 0;
            last_good = None;
          },
          true )
  in
  if p.bench <> u.bench then
    invalidf "profile %S is bound to benchmark %S, not %S" p.name p.bench
      u.bench;
  if not is_new then ignore (Placement.Bounded.find t.profiles u.profile);
  let epoch = Option.value ~default:p.current u.epoch in
  if epoch < 0 then failwith "epoch must be >= 0";
  if epoch < min_live_epoch p then
    outcome_of p ~accepted:false ~reason:(Some "stale-epoch") epoch
  else begin
    validate_upload p.prog u;
    if is_new then Placement.Bounded.add t.profiles u.profile p;
    if epoch > p.current then begin
      p.current <- epoch;
      let live = min_live_epoch p in
      p.epochs <- List.filter (fun (e, _) -> e >= live) p.epochs
    end;
    let acc =
      match List.assoc_opt epoch p.epochs with
      | Some a -> a
      | None ->
          let a = acc_create () in
          p.epochs <-
            List.sort (fun (a, _) (b, _) -> compare b a)
              ((epoch, a) :: p.epochs);
          a
    in
    let w = u.weight in
    List.iter
      (fun (fid, lbl, c) -> acc_add acc.blocks (fid, lbl) (w *. c))
      u.blocks;
    List.iter
      (fun (fid, src, dst, c) ->
        acc_add acc.arcs (fid, src, dst) (w *. c))
      u.arcs;
    List.iter
      (fun (fid, c) -> acc_add acc.entries fid (w *. c))
      u.entries;
    List.iter
      (fun (fid, blk, callee, c) ->
        acc_add acc.calls (fid, blk, callee) (w *. c))
      u.calls;
    p.uploads <- p.uploads + 1;
    p.revision <- p.revision + 1;
    let vmprof = materialize p.prog p.epochs in
    p.flow_violations <- List.length (Placement.Validate.flow vmprof);
    if not (poisoned p) then
      p.last_good <- Some (epoch, p.revision, vmprof);
    outcome_of p ~accepted:true ~reason:None epoch
  end

(* ---- read side ---- *)

type view =
  | Fresh of { profile : Vm.Profile.t; revision : int; epoch : int }
  | Last_good of { profile : Vm.Profile.t; revision : int; epoch : int }
  | Empty  (** exists, but no flow-conserving snapshot was ever built *)
  | Unknown

let view t name =
  Mutex.protect t.lock @@ fun () ->
  match Placement.Bounded.find t.profiles name with
  | None -> Unknown
  | Some p -> (
      match p.last_good with
      | Some (_, _, vmprof) when not (poisoned p) ->
          Fresh { profile = vmprof; revision = p.revision; epoch = p.current }
      | Some (epoch, revision, vmprof) ->
          Last_good { profile = vmprof; revision; epoch }
      | None -> Empty)

let bench_of t name =
  Mutex.protect t.lock @@ fun () ->
  Option.map (fun p -> p.bench) (Placement.Bounded.peek t.profiles name)

let size t =
  Mutex.protect t.lock @@ fun () -> Placement.Bounded.length t.profiles

let evictions_total t =
  Mutex.protect t.lock @@ fun () -> Placement.Bounded.evictions t.profiles

let poisoned_count t =
  Mutex.protect t.lock @@ fun () ->
  Placement.Bounded.fold
    (fun _ p n -> if poisoned p then n + 1 else n)
    t.profiles 0

let stats_json t =
  Mutex.protect t.lock @@ fun () ->
  let rows =
    Placement.Bounded.fold (fun _ p acc -> p :: acc) t.profiles []
    |> List.sort (fun a b -> compare a.name b.name)
    |> List.map (fun p ->
           Obs.Json.Obj
             [
               ("name", Obs.Json.String p.name);
               ("bench", Obs.Json.String p.bench);
               ("current_epoch", Obs.Json.Int p.current);
               ("epochs_live", Obs.Json.Int (List.length p.epochs));
               ("uploads", Obs.Json.Int p.uploads);
               ("poisoned", Obs.Json.Bool (poisoned p));
               ( "last_good_epoch",
                 match p.last_good with
                 | Some (e, _, _) -> Obs.Json.Int e
                 | None -> Obs.Json.Null );
             ])
  in
  Obs.Json.List rows
