(* Paging simulator tests. *)

let mk ?(page_bytes = 512) ?(frames = 4) ?(theta = 100) ?(sample_every = 10)
    () =
  Paging.Page_sim.create
    { Paging.Page_sim.page_bytes; frames; theta; sample_every }

let access sim addr = Paging.Page_sim.access_run sim ~addr ~words:1
let feed sim addrs = List.iter (access sim) addrs

let distinct_pages () =
  let sim = mk () in
  feed sim [ 0; 4; 8; 511; 512; 1024; 0; 512 ];
  Alcotest.(check int) "three pages" 3 (Paging.Page_sim.distinct_pages sim);
  Alcotest.(check int) "accesses" 8 (Paging.Page_sim.accesses sim)

let lru_replacement () =
  (* 2 frames: pages 0,1 resident; touching 2 evicts 0 (LRU). *)
  let sim = mk ~frames:2 () in
  let page p = p * 512 in
  feed sim [ page 0; page 1; page 0; page 2 ];
  (* faults so far: 0,1,2 *)
  Alcotest.(check int) "three faults" 3 (Paging.Page_sim.lru_faults sim);
  (* 1 was evicted? no: LRU of {0(t3),1(t2)} at insert of 2 is page 1 *)
  feed sim [ page 0 ];
  Alcotest.(check int) "page 0 still resident" 3 (Paging.Page_sim.lru_faults sim);
  feed sim [ page 1 ];
  Alcotest.(check int) "page 1 was the victim" 4 (Paging.Page_sim.lru_faults sim)

let working_set () =
  (* One page touched continuously: working set stabilizes at 1. *)
  let sim = mk ~theta:50 ~sample_every:10 () in
  for _ = 1 to 100 do
    access sim 0
  done;
  Alcotest.(check (float 0.01)) "ws = 1" 1.0 (Paging.Page_sim.mean_working_set sim);
  Alcotest.(check int) "max ws" 1 (Paging.Page_sim.max_working_set sim);
  (* Two pages alternating stay within the window: ws = 2. *)
  let sim2 = mk ~theta:50 ~sample_every:10 () in
  for k = 1 to 100 do
    access sim2 (if k mod 2 = 0 then 0 else 512)
  done;
  Alcotest.(check int) "max ws 2" 2 (Paging.Page_sim.max_working_set sim2)

let validation () =
  (match mk ~frames:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frames=0 accepted");
  match mk ~page_bytes:510 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "page_bytes=510 accepted"

(* A zero sampling period must be refused up front, not surface as
   [Division_by_zero] on the first access. *)
let zero_sample_period () =
  match mk ~sample_every:0 () with
  | exception Invalid_argument _ -> ()
  | sim ->
      Paging.Page_sim.access_run sim ~addr:0 ~words:4;
      Alcotest.fail "sample_every=0 accepted"

let fault_rate_bounds () =
  let sim = mk () in
  feed sim (List.init 100 (fun k -> k * 4));
  let r = Paging.Page_sim.fault_rate sim in
  Alcotest.(check bool) "rate in [0,1]" true (r >= 0. && r <= 1.)

(* The oracle: one fetch at a time, with its own naive LRU over a
   page -> last-touch table (victim: the least recently touched resident
   page), and the working set sampled from a page -> last-access
   table. *)
type oracle = {
  o_cfg : Paging.Page_sim.config;
  o_last : (int, int) Hashtbl.t;
  o_resident : (int, int) Hashtbl.t;
  mutable o_time : int;
  mutable o_pages : int;
  mutable o_faults : int;
  mutable o_samples : int;
  mutable o_ws_sum : int;
  mutable o_ws_max : int;
}

let oracle o_cfg =
  {
    o_cfg;
    o_last = Hashtbl.create 64;
    o_resident = Hashtbl.create 16;
    o_time = 0;
    o_pages = 0;
    o_faults = 0;
    o_samples = 0;
    o_ws_sum = 0;
    o_ws_max = 0;
  }

let oracle_access o addr =
  let cfg = o.o_cfg in
  o.o_time <- o.o_time + 1;
  let page = addr / cfg.Paging.Page_sim.page_bytes in
  if not (Hashtbl.mem o.o_last page) then o.o_pages <- o.o_pages + 1;
  Hashtbl.replace o.o_last page o.o_time;
  if not (Hashtbl.mem o.o_resident page) then begin
    o.o_faults <- o.o_faults + 1;
    if Hashtbl.length o.o_resident >= cfg.Paging.Page_sim.frames then begin
      let victim, _ =
        Hashtbl.fold
          (fun p last (v, oldest) ->
            if last < oldest then (p, last) else (v, oldest))
          o.o_resident (-1, max_int)
      in
      Hashtbl.remove o.o_resident victim
    end
  end;
  Hashtbl.replace o.o_resident page o.o_time;
  if o.o_time mod cfg.Paging.Page_sim.sample_every = 0 then begin
    let horizon = o.o_time - cfg.Paging.Page_sim.theta in
    let live =
      Hashtbl.fold
        (fun _ last n -> if last > horizon then n + 1 else n)
        o.o_last 0
    in
    o.o_samples <- o.o_samples + 1;
    o.o_ws_sum <- o.o_ws_sum + live;
    o.o_ws_max <- max o.o_ws_max live
  end

(* Differential: [access_run] must agree with the word-by-word oracle on
   every observable, including working-set samples that land in the
   middle of a run.  Small pages/windows make runs span pages and put
   sample ticks inside spans; few frames make the LRU evict. *)
let paging_chunks_gen =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (a, w) -> Printf.sprintf "(%d,%d)" a w) l))
    QCheck.Gen.(
      list_size (int_range 20 120)
        (pair (map (fun a -> a * 4) (int_bound 1023)) (int_range 1 40)))

let prop_access_run_equals_access =
  QCheck.Test.make ~name:"paging access_run = per-word access" ~count:80
    paging_chunks_gen (fun chunks ->
      List.for_all
        (fun (page_bytes, frames, theta, sample_every) ->
          let cfg =
            { Paging.Page_sim.page_bytes; frames; theta; sample_every }
          in
          let o = oracle cfg and sim = Paging.Page_sim.create cfg in
          List.iter
            (fun (addr, words) ->
              for k = 0 to words - 1 do
                oracle_access o (addr + (k * 4))
              done;
              Paging.Page_sim.access_run sim ~addr ~words)
            chunks;
          let mean_ws =
            if o.o_samples = 0 then 0.
            else float_of_int o.o_ws_sum /. float_of_int o.o_samples
          in
          o.o_time = Paging.Page_sim.accesses sim
          && o.o_pages = Paging.Page_sim.distinct_pages sim
          && o.o_faults = Paging.Page_sim.lru_faults sim
          && float_of_int o.o_faults /. float_of_int o.o_time
             = Paging.Page_sim.fault_rate sim
          && mean_ws = Paging.Page_sim.mean_working_set sim
          && o.o_ws_max = Paging.Page_sim.max_working_set sim)
        [ (64, 3, 37, 5); (128, 2, 100, 13); (512, 16, 10_000, 1_000) ])

let suite =
  [
    Alcotest.test_case "distinct pages" `Quick distinct_pages;
    Alcotest.test_case "LRU replacement" `Quick lru_replacement;
    Alcotest.test_case "working set" `Quick working_set;
    Alcotest.test_case "validation" `Quick validation;
    Alcotest.test_case "zero sample period rejected" `Quick
      zero_sample_period;
    Alcotest.test_case "fault rate bounds" `Quick fault_rate_bounds;
    QCheck_alcotest.to_alcotest prop_access_run_equals_access;
  ]
