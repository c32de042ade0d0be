(* Static call graph over a lowered program.  Nodes are function
   indices; each caller lists its callees once, in reverse order of
   their first call sites. *)

type t = { callees : int list array }

let build (p : Prog.program) =
  let callees = Array.make (Array.length p.funcs) [] in
  Prog.iter_blocks
    (fun fid _ _ b ->
      match Cfg.callee b with
      | None -> ()
      | Some name ->
        let callee = Prog.func_index p name in
        if not (List.mem callee callees.(fid)) then
          callees.(fid) <- callee :: callees.(fid))
    p;
  { callees }

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
