(* Seeded random mini-C program generator, used by the differential
   tests and the layout fuzzer (lib/fuzz).

   Programs terminate by construction: the only loops are counted for
   loops with small immediate bounds, and helper functions may call only
   lower-numbered helpers (no recursion).  [generate_deep] adds what
   those programs never reach: counted loops bounded in the hundreds in
   [main], never one inside another, which break out part-way through
   an iteration, and a recursive function whose depth argument is
   masked below 8.  All memory accesses are masked
   into a scratch buffer, so generated programs never fault.  Every
   program writes observable output (putc of expression values), making
   semantic divergence after a transformation visible.

   The generator carries its own deterministic RNG rather than
   [Workloads.Rng], so a seed names the same program no matter how the
   workloads' generator evolves (test/vectors/maps/strategies.txt pins
   the maps of seeds 1-50). *)

open Ir
open Ast.Dsl

(* Deterministic splitmix64, mirroring Workloads.Rng. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Gen.Rng.int: non-positive bound";
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let bool t = Int64.logand (next t) 1L = 1L
  let range t lo hi = lo + int t (hi - lo + 1)
  let pick t arr = arr.(int t (Array.length arr))
end

type ctx = {
  rng : Rng.t;
  mutable fuel : int; (* bounds the generated program size *)
  nhelpers : int;
  helper_idx : int; (* helpers may call only helpers below this index *)
  in_loop : bool;
  deep : bool; (* long loops and calls to [walk] allowed here *)
}

let vars = [| "a"; "b"; "c"; "d" |]

let take ctx = ctx.fuel <- ctx.fuel - 1

let rec gen_expr ctx depth =
  take ctx;
  if depth = 0 || ctx.fuel <= 0 then
    if Rng.bool ctx.rng then i (Rng.range ctx.rng (-20) 20)
    else v (Rng.pick ctx.rng vars)
  else begin
    match Rng.int ctx.rng 14 with
    | 0 | 1 | 2 ->
      let op =
        Rng.pick ctx.rng [| ( +% ); ( -% ); ( *% ); ( &% ); ( |% ); ( ^% ) |]
      in
      op (gen_expr ctx (depth - 1)) (gen_expr ctx (depth - 1))
    | 3 ->
      (* division by a guaranteed nonzero quantity *)
      gen_expr ctx (depth - 1)
      /% ((gen_expr ctx (depth - 1) &% i 15) +% i 1)
    | 4 ->
      gen_expr ctx (depth - 1)
      %% ((gen_expr ctx (depth - 1) &% i 15) +% i 1)
    | 5 ->
      let cmp =
        Rng.pick ctx.rng
          [| ( <% ); ( <=% ); ( >% ); ( >=% ); ( ==% ); ( <>% ) |]
      in
      cmp (gen_expr ctx (depth - 1)) (gen_expr ctx (depth - 1))
    | 6 -> gen_expr ctx (depth - 1) &&% gen_expr ctx (depth - 1)
    | 7 -> gen_expr ctx (depth - 1) ||% gen_expr ctx (depth - 1)
    | 8 ->
      Ast.Cond
        (gen_expr ctx (depth - 1), gen_expr ctx (depth - 1), gen_expr ctx (depth - 1))
    | 9 -> not_ (gen_expr ctx (depth - 1))
    | 10 -> neg (gen_expr ctx (depth - 1))
    | 11 ->
      (* masked scratch-buffer load: always in range *)
      ld8 (g "scratch" +% (gen_expr ctx (depth - 1) &% i 63))
    | 12 when ctx.deep && Rng.bool ctx.rng ->
      call "walk" [ gen_expr ctx (depth - 1) &% i 7; gen_expr ctx (depth - 1) ]
    | 12 when ctx.helper_idx > 0 ->
      let callee = Rng.int ctx.rng ctx.helper_idx in
      call
        (Printf.sprintf "helper%d" callee)
        [ gen_expr ctx (depth - 1); gen_expr ctx (depth - 1) ]
    | _ ->
      (gen_expr ctx (depth - 1) <<% i (Rng.int ctx.rng 4))
      >>% i (Rng.int ctx.rng 4)
  end

let rec gen_stmt ctx depth =
  take ctx;
  if depth = 0 || ctx.fuel <= 0 then
    set (Rng.pick ctx.rng vars) (gen_expr ctx 1)
  else begin
    match Rng.int ctx.rng 12 with
    | 0 | 1 | 2 ->
      set (Rng.pick ctx.rng vars) (gen_expr ctx 2)
    | 3 ->
      if_ (gen_expr ctx 2)
        (gen_body ctx (depth - 1))
        (gen_body ctx (depth - 1))
    | 4 -> when_ (gen_expr ctx 2) (gen_body ctx (depth - 1))
    | 5 -> gen_loop ctx depth ~long:(ctx.deep && Rng.bool ctx.rng)
    | 6 when ctx.in_loop && Rng.bool ctx.rng ->
      when_ (gen_expr ctx 1) [ break_ ]
    | 7 when ctx.in_loop && Rng.bool ctx.rng ->
      when_ (gen_expr ctx 1) [ continue_ ]
    | 8 ->
      switch (gen_expr ctx 2 &% i 3)
        [
          ([ 0 ], gen_body ctx (depth - 1) @ [ break_ ]);
          ([ 1; 2 ], gen_body ctx (depth - 1)); (* falls through *)
        ]
        (gen_body ctx (depth - 1))
    | 9 ->
      st8
        (g "scratch" +% (gen_expr ctx 1 &% i 63))
        (gen_expr ctx 2)
    | 10 -> putc (i 0) (gen_expr ctx 2 &% i 255)
    | _ ->
      set (Rng.pick ctx.rng vars)
        (gen_expr ctx 2)
  end

(* A bounded counted loop; the index variable is loop-local.  A long
   one (100 to 400 iterations, never inside another) also leaves
   part-way through an iteration. *)
and gen_loop ctx depth ~long =
  let n = if long then Rng.range ctx.rng 100 400 else Rng.range ctx.rng 1 6 in
  let idx = Printf.sprintf "k%d" (Rng.int ctx.rng 1000) in
  let body =
    gen_body { ctx with in_loop = true; deep = ctx.deep && not long } (depth - 1)
  in
  let body =
    if long then
      List.hd body
      :: when_ (v idx ==% i (Rng.range ctx.rng 50 (n - 1))) [ break_ ]
      :: List.tl body
    else body
  in
  for_ [ decl idx (i 0) ] (v idx <% i n) [ incr_ idx ] body

and gen_body ctx depth =
  let n = Rng.range ctx.rng 1 4 in
  List.init n (fun _ -> gen_stmt ctx depth)

let gen_helper ctx idx =
  let body =
    [ decl "a" (v "p0" +% i 1); decl "b" (v "p1"); decl "c" (i 0); decl "d" (i 3) ]
    @ gen_body { ctx with helper_idx = idx } 2
    @ [ ret ((v "a" ^% v "b") +% (v "c" -% v "d")) ]
  in
  func (Printf.sprintf "helper%d" idx) [ "p0"; "p1" ] body

(* [walk p0 p1] recurses to depth [p0] before running its body; it may
   call every helper. *)
let gen_walk ctx =
  let body =
    [
      decl "a" (v "p0" +% i 1); decl "b" (v "p1"); decl "c" (i 0); decl "d" (i 3);
      when_ (v "p0" >% i 0)
        [ set "b" (v "b" +% call "walk" [ v "p0" -% i 1; gen_expr ctx 2 ]) ];
    ]
    @ gen_body ctx 2
    @ [ ret ((v "a" ^% v "b") +% (v "c" -% v "d")) ]
  in
  func "walk" [ "p0"; "p1" ] body

let gen_program ~deep ~size seed : Ast.program =
  let rng = Rng.create seed in
  let nhelpers = Rng.int rng 4 in
  let ctx =
    { rng; fuel = size; nhelpers; helper_idx = 0; in_loop = false; deep = false }
  in
  let helpers = List.init nhelpers (fun idx -> gen_helper ctx idx) in
  let walk =
    if deep then [ gen_walk { ctx with fuel = size; helper_idx = nhelpers } ]
    else []
  in
  let main_ctx = { ctx with fuel = size; helper_idx = nhelpers; deep } in
  let main_body =
    [ decl "a" (i 1); decl "b" (i 2); decl "c" (i 3); decl "d" (i 4) ]
    (* every deep program holds at least one long loop *)
    @ (if deep then [ gen_loop main_ctx 3 ~long:true ] else [])
    @ gen_body main_ctx 3
    @ [
        (* make all variable state observable *)
        putc (i 0) (v "a" &% i 255);
        putc (i 0) (v "b" &% i 255);
        putc (i 0) (v "c" &% i 255);
        putc (i 0) (v "d" &% i 255);
        ret ((v "a" +% v "b") ^% (v "c" *% v "d"));
      ]
  in
  {
    Ast.globals = [ ("scratch", Ast.Gzero 64) ];
    funcs = helpers @ walk @ [ func "main" [] main_body ];
    entry = "main";
  }

(* Generate a whole program from a seed.  [size] scales the fuel. *)
let generate ?(size = 120) seed = gen_program ~deep:false ~size seed
let generate_deep ?(size = 120) seed = gen_program ~deep:true ~size seed

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Candidate one-step reductions of a program, coarsest first: drop a
   whole uncalled function, stub a function body down to [return 0],
   remove one top-level statement.  The fuzzer greedily applies any
   candidate that keeps its failure predicate true, to a fixed point,
   yielding a minimal reproducer. *)

let rec expr_calls (e : Ast.expr) acc =
  match e with
  | Ast.Int _ | Ast.Var _ | Ast.Global _ -> acc
  | Ast.Bin (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    expr_calls a (expr_calls b acc)
  | Ast.Neg a | Ast.Not a | Ast.Load8 a | Ast.Load32 a -> expr_calls a acc
  | Ast.Call (f, args) ->
    f :: List.fold_left (fun acc a -> expr_calls a acc) acc args
  | Ast.Intrin (_, args) ->
    List.fold_left (fun acc a -> expr_calls a acc) acc args
  | Ast.Cond (a, b, c) -> expr_calls a (expr_calls b (expr_calls c acc))

let rec stmt_calls (s : Ast.stmt) acc =
  match s with
  | Ast.Decl (_, e) | Ast.Assign (_, e) | Ast.Expr e | Ast.Return (Some e) ->
    expr_calls e acc
  | Ast.Store8 (a, b) | Ast.Store32 (a, b) -> expr_calls a (expr_calls b acc)
  | Ast.If (c, t, e) -> expr_calls c (body_calls t (body_calls e acc))
  | Ast.While (c, b) | Ast.Do_while (b, c) -> expr_calls c (body_calls b acc)
  | Ast.For (init, c, step, b) ->
    body_calls init
      (expr_calls c (body_calls step (body_calls b acc)))
  | Ast.Switch (e, cases, default) ->
    expr_calls e
      (List.fold_left
         (fun acc (_, b) -> body_calls b acc)
         (body_calls default acc)
         cases)
  | Ast.Break | Ast.Continue | Ast.Return None -> acc

and body_calls body acc =
  List.fold_left (fun acc s -> stmt_calls s acc) acc body

let called_names (p : Ast.program) =
  List.concat_map (fun (f : Ast.func) -> body_calls f.body []) p.funcs

let stub_body = [ Ast.Return (Some (Ast.Int 0)) ]

let shrink_candidates (p : Ast.program) : Ast.program list =
  let called = called_names p in
  let drop_func =
    List.filter_map
      (fun (f : Ast.func) ->
        if f.name <> p.entry && not (List.mem f.name called) then
          Some
            { p with Ast.funcs = List.filter (fun g -> g != f) p.funcs }
        else None)
      p.funcs
  in
  let stub_func =
    List.filter_map
      (fun (f : Ast.func) ->
        if f.body = stub_body then None
        else
          Some
            {
              p with
              Ast.funcs =
                List.map
                  (fun g -> if g == f then { g with Ast.body = stub_body } else g)
                  p.funcs;
            })
      p.funcs
  in
  let drop_stmt =
    List.concat_map
      (fun (f : Ast.func) ->
        (* Keep at least one statement so the function stays lowerable. *)
        if List.length f.Ast.body <= 1 then []
        else
          List.mapi
            (fun k _ ->
              let body = List.filteri (fun j _ -> j <> k) f.Ast.body in
              {
                p with
                Ast.funcs =
                  List.map
                    (fun g -> if g == f then { g with Ast.body = body } else g)
                    p.funcs;
              })
            f.Ast.body)
      p.funcs
  in
  drop_func @ stub_func @ drop_stmt

(* Greedy shrink to a fixed point: repeatedly take the first candidate
   reduction on which [still_fails] holds.  [max_steps] bounds the work
   on pathological inputs. *)
let max_steps = 400

let shrink (p : Ast.program)
    ~(still_fails : Ast.program -> bool) : Ast.program * int =
  let steps = ref 0 in
  let current = ref p in
  let progress = ref true in
  while !progress && !steps < max_steps do
    progress := false;
    match List.find_opt still_fails (shrink_candidates !current) with
    | Some smaller ->
      current := smaller;
      incr steps;
      progress := true
    | None -> ()
  done;
  (!current, !steps)

(* Observable behaviour of a lowered program on the empty input: its
   return value and stream-0 output, run on the VM.  Generated programs
   terminate well within the fuel. *)
let observe prog =
  let r = Vm.Interp.run ~fuel:50_000_000 prog (Vm.Io.input []) in
  (r.Vm.Interp.return_value, Vm.Io.output r.Vm.Interp.io 0)
