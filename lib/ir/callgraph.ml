(* Static call graph over a lowered program.  Nodes are function indices;
   a call site is (caller function, block label, callee function). *)

type site = { caller : int; block : Cfg.label; callee : int }

type t = {
  sites : site list;
  callees : int list array; (* deduplicated, per caller *)
  callers : int list array; (* deduplicated, per callee *)
}

let build (p : Prog.program) =
  let n = Array.length p.funcs in
  let sites = ref [] in
  let callees = Array.make n [] in
  let callers = Array.make n [] in
  Prog.iter_blocks
    (fun fid _ l b ->
      match Cfg.callee b with
      | None -> ()
      | Some name ->
        let callee = Prog.func_index p name in
        sites := { caller = fid; block = l; callee } :: !sites;
        if not (List.mem callee callees.(fid)) then
          callees.(fid) <- callee :: callees.(fid);
        if not (List.mem fid callers.(callee)) then
          callers.(callee) <- fid :: callers.(callee))
    p;
  { sites = List.rev !sites; callees; callers }

(* [true] when a call chain leads from [src] back to [src] through [dst]
   (i.e. inlining [dst] into [src] could require unbounded expansion). *)
let in_cycle_with t ~src ~dst =
  let n = Array.length t.callees in
  let seen = Array.make n false in
  let rec go f =
    f = src
    ||
    if seen.(f) then false
    else begin
      seen.(f) <- true;
      List.exists go t.callees.(f)
    end
  in
  go dst
