(* Fixed-size domain pool with a chunked task queue and
   exception-carrying futures.

   Design constraints, in order:

   - Determinism.  [map] returns results in input order and, when tasks
     raise, re-raises the exception of the LOWEST-INDEX failing task
     (with its original payload and backtrace).  Which domain ran which
     task never leaks into observable behavior, so a parallel run is
     bit-identical to the serial one for any task function whose outputs
     depend only on its input.
   - No work stealing.  Tasks are claimed from a shared per-job cursor
     ([Atomic.fetch_and_add] over chunks of consecutive indices), which
     keeps the queue a single integer and makes claiming wait-free; the
     only mutex guards job registration and completion counting.
   - Nested submission cannot deadlock.  The submitter of a job is also
     a worker for it: [map] claims chunks itself until the cursor is
     exhausted and only then blocks on the job's completion.  A pool
     worker that calls [map] mid-task therefore executes the inner job's
     tasks on its own domain (with idle workers helping), so a chain of
     nested maps always bottoms out in a running task and progress is
     guaranteed at every nesting depth.
   - A pool of [lanes <= 1] never spawns a domain and [map] degrades to
     [List.map]: `-j 1` is the serial path, byte for byte.

   The process-wide default pool is how the CLI's `-j N` reaches the
   parallel grains (benchmarks within a table, configurations within a
   sweep, strategies within a lint sweep, fuzzer seeds, serve batches)
   without threading a pool through every experiment signature.
   [with_default] installs it around a run, before any parallel section,
   and restores the previous one after; consumers call [map_default]. *)

type job = {
  run : int -> unit;  (* execute task [i]; must not raise (see [map]) *)
  total : int;
  chunk : int;  (* consecutive indices claimed per cursor bump *)
  next : int Atomic.t;  (* claim cursor; >= total = nothing left *)
  mutable completed : int;  (* tasks finished, under the pool mutex *)
}

type t = {
  lanes : int;  (* worker domains + the submitting caller *)
  mutex : Mutex.t;
  work : Condition.t;  (* a job was submitted, or shutdown *)
  finished : Condition.t;  (* some job's [completed] reached [total] *)
  mutable jobs : job list;  (* jobs that may still hold unclaimed tasks *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let lanes t = t.lanes

(* Claim and run chunks of [j] until its cursor is exhausted.  Called by
   workers and by the submitter alike. *)
let run_chunks t j =
  let rec go () =
    let lo = Atomic.fetch_and_add j.next j.chunk in
    if lo < j.total then begin
      let hi = min (lo + j.chunk) j.total in
      for i = lo to hi - 1 do
        j.run i
      done;
      Mutex.lock t.mutex;
      j.completed <- j.completed + (hi - lo);
      if j.completed = j.total then begin
        t.jobs <- List.filter (fun j' -> j' != j) t.jobs;
        Condition.broadcast t.finished
      end;
      Mutex.unlock t.mutex;
      go ()
    end
  in
  go ()

let rec worker t =
  Mutex.lock t.mutex;
  let rec await () =
    if t.stopping then None
    else
      match
        List.find_opt (fun j -> Atomic.get j.next < j.total) t.jobs
      with
      | Some j -> Some j
      | None ->
        Condition.wait t.work t.mutex;
        await ()
  in
  let found = await () in
  Mutex.unlock t.mutex;
  match found with
  | None -> ()
  | Some j ->
    run_chunks t j;
    worker t

let create lanes =
  if lanes < 1 then invalid_arg "Pool.create: lanes must be >= 1";
  let t =
    {
      lanes;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      jobs = [];
      stopping = false;
      workers = [];
    }
  in
  if lanes > 1 then
    t.workers <- List.init (lanes - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.lanes <= 1 -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    (* Each slot is written by exactly one task and read only after the
       mutex-synchronized completion count reaches [n], which publishes
       every write to the submitter (happens-before via the mutex). *)
    let slots = Array.make n None in
    let run i =
      slots.(i) <-
        Some
          (match f arr.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    (* A few chunks per lane: large enough to keep cursor contention
       negligible, small enough to balance uneven task costs. *)
    let chunk = max 1 (n / (t.lanes * 4)) in
    let j = { run; total = n; chunk; next = Atomic.make 0; completed = 0 } in
    Mutex.lock t.mutex;
    t.jobs <- t.jobs @ [ j ];
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    run_chunks t j;
    Mutex.lock t.mutex;
    while j.completed < j.total do
      Condition.wait t.finished t.mutex
    done;
    Mutex.unlock t.mutex;
    (* Deterministic failure: the lowest-index failing task wins, with
       its original exception payload and backtrace. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      slots;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error _) | None -> assert false)
         slots)

(* ------------------------------------------------------------------ *)
(* Process-wide default pool (`-j N`)                                  *)
(* ------------------------------------------------------------------ *)

let default_pool : t option ref = ref None

let set_default p = default_pool := p
let default () = !default_pool

let map_default f xs =
  match !default_pool with Some t -> map t f xs | None -> List.map f xs

let with_default lanes f =
  let t = create lanes in
  let saved = !default_pool in
  default_pool := Some t;
  Fun.protect
    ~finally:(fun () ->
      default_pool := saved;
      shutdown t)
    f
