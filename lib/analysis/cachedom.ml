(* Bounded age-vector lattice for abstract I-cache states.

   A state maps every cache line the program can touch (its "line
   universe": dense ids, the ranks of the distinct line numbers covered
   by the address map) to an abstract LRU age in 0..ways, stored as one byte
   per line.  Age [ways] is the top element "possibly/definitely absent"
   depending on the domain reading it:

   - Must states keep an UPPER bound on the true age, so
     [age < ways] proves residence (guaranteed hit).  Join is the
     pointwise MAX (keep the weakest upper bound).
   - May states keep a LOWER bound, so [age = ways] proves absence
     (guaranteed miss).  Join is the pointwise MIN.

   The transfer on an access to line l only renumbers lines of l's
   cache set, mirroring LRU: l's age drops to 0 and set-mates below
   the evicted bound age one step (strictly-younger mates for Must,
   younger-or-equal for May — the classic Ferdinand/Wilhelm update).

   One byte per age caps usable associativity at 254 ways; {!Absint}
   gates larger configurations to "unclassified" rather than lie. *)

let max_ways = 254

type universe = {
  ways : int;  (* also the top age *)
  nlines : int;
  line_no : int array;  (* dense id -> absolute line number, ascending *)
  set_rank : int array;  (* dense id -> rank of its set among occupied sets *)
  set_ids : int array array;  (* set rank -> its dense ids, ascending *)
}

type state = Bytes.t

(* Dense ids are the ranks of the distinct lines, found by binary search;
   ids sorted by (set, id) group into runs, one shared array per
   occupied set.  Nothing here is sized by the cache's set count. *)
let universe (config : Icache.Config.t) (lines : int array) : universe =
  let ways = Icache.Config.ways_of config in
  if ways > max_ways then
    invalid_arg
      (Printf.sprintf "Cachedom.universe: %d ways exceeds the %d-way cap" ways
         max_ways);
  let nsets = Icache.Config.nsets config in
  let line_no =
    Array.of_list (List.sort_uniq Int.compare (Array.to_list lines))
  in
  let nlines = Array.length line_no in
  let set id = line_no.(id) mod nsets in
  let by_set = Array.init nlines Fun.id in
  (* stable: ids stay ascending within a set *)
  Array.stable_sort (fun a b -> Int.compare (set a) (set b)) by_set;
  let set_rank = Array.make nlines 0 in
  let runs = ref [] and nruns = ref 0 and start = ref 0 in
  for i = 1 to nlines do
    if i = nlines || set by_set.(i) <> set by_set.(!start) then begin
      let ids = Array.sub by_set !start (i - !start) in
      Array.iter (fun id -> set_rank.(id) <- !nruns) ids;
      runs := ids :: !runs;
      incr nruns;
      start := i
    end
  done;
  { ways; nlines; line_no; set_rank; set_ids = Array.of_list (List.rev !runs) }

let id (u : universe) (line : int) : int =
  let rec search lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let l = u.line_no.(mid) in
      if l = line then mid
      else if l < line then search (mid + 1) hi
      else search lo mid
  in
  search 0 u.nlines

(* All-absent: every age at top.  Both the boundary value (the simulator
   starts each run with an empty cache) and the interior init (for Must
   it claims nothing, for May interior values are overwritten by the
   first meet on every reachable node). *)
let top (u : universe) : state = Bytes.make u.nlines (Char.chr u.ways)
let copy (st : state) : state = Bytes.copy st
let assign ~(dst : state) (src : state) : unit =
  Bytes.blit src 0 dst 0 (Bytes.length src)

let equal = Bytes.equal
let age (st : state) (id : int) : int = Char.code (Bytes.unsafe_get st id)
let set_age (st : state) (id : int) (a : int) : unit =
  Bytes.unsafe_set st id (Char.unsafe_chr a)

(* dst := pointwise max (weakest upper bound wins) *)
let must_join_into ~(dst : state) (src : state) : unit =
  for i = 0 to Bytes.length dst - 1 do
    let a = age src i in
    if a > age dst i then set_age dst i a
  done

(* dst := pointwise min (weakest lower bound wins) *)
let may_join_into ~(dst : state) (src : state) : unit =
  for i = 0 to Bytes.length dst - 1 do
    let a = age src i in
    if a < age dst i then set_age dst i a
  done

(* In-place access transfers.  Reading the accessed line's OLD age
   first makes the in-place mate updates safe: each mate moves
   independently, compared against that saved bound.  The walk covers
   the accessed line's whole set, the line itself included; whatever it
   does to the line, its age ends at 0. *)

let access_must (u : universe) (st : state) (id : int) : unit =
  let bound = age st id in
  Array.iter
    (fun m ->
      let a = age st m in
      if a < bound then set_age st m (min (a + 1) u.ways))
    u.set_ids.(u.set_rank.(id));
  set_age st id 0

let access_may (u : universe) (st : state) (id : int) : unit =
  let bound = age st id in
  Array.iter
    (fun m ->
      let a = age st m in
      if a <= bound then set_age st m (min (a + 1) u.ways))
    u.set_ids.(u.set_rank.(id));
  set_age st id 0

let must_lattice (u : universe) : state Dataflow.lattice =
  {
    Dataflow.make = (fun () -> top u);
    assign;
    join_into = must_join_into;
    equal;
  }

let may_lattice (u : universe) : state Dataflow.lattice =
  {
    Dataflow.make = (fun () -> top u);
    assign;
    join_into = may_join_into;
    equal;
  }
