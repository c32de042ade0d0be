(* Paging simulator tests. *)

let mk ?(page_bytes = 512) ?(frames = 4) ?(theta = 100) ?(sample_every = 10)
    () =
  Paging.Page_sim.create
    { Paging.Page_sim.page_bytes; frames; theta; sample_every }

let feed sim addrs = List.iter (Paging.Page_sim.access sim) addrs

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
    Paging.Page_sim.access sim 0
  done;
  Alcotest.(check (float 0.01)) "ws = 1" 1.0 (Paging.Page_sim.mean_working_set sim);
  Alcotest.(check int) "max ws" 1 (Paging.Page_sim.max_working_set sim);
  (* Two pages alternating stay within the window: ws = 2. *)
  let sim2 = mk ~theta:50 ~sample_every:10 () in
  for k = 1 to 100 do
    Paging.Page_sim.access sim2 (if k mod 2 = 0 then 0 else 512)
  done;
  Alcotest.(check int) "max ws 2" 2 (Paging.Page_sim.max_working_set sim2)

let validation () =
  match mk ~frames:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frames=0 accepted"

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

(* Differential: [access_run] must be bit-identical to per-word [access]
   on every observable, including working-set samples that land in the
   middle of a run.  Small pages/windows make runs span pages and put
   sample ticks inside spans. *)
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
      let pairs =
        List.map
          (fun fresh -> (fresh (), fresh ()))
          [
            (fun () -> mk ~page_bytes:64 ~frames:3 ~theta:37 ~sample_every:5 ());
            (fun () ->
              mk ~page_bytes:128 ~frames:2 ~theta:100 ~sample_every:13 ());
            (fun () ->
              mk ~page_bytes:512 ~frames:16 ~theta:10_000 ~sample_every:1_000 ());
          ]
      in
      List.for_all
        (fun ((ref_sim : Paging.Page_sim.t), (fast : Paging.Page_sim.t)) ->
          List.iter
            (fun (addr, words) ->
              for k = 0 to words - 1 do
                Paging.Page_sim.access ref_sim (addr + (k * 4))
              done;
              Paging.Page_sim.access_run fast ~addr ~words)
            chunks;
          Paging.Page_sim.accesses ref_sim = Paging.Page_sim.accesses fast
          && Paging.Page_sim.distinct_pages ref_sim
             = Paging.Page_sim.distinct_pages fast
          && Paging.Page_sim.lru_faults ref_sim
             = Paging.Page_sim.lru_faults fast
          && Paging.Page_sim.fault_rate ref_sim
             = Paging.Page_sim.fault_rate fast
          && Paging.Page_sim.mean_working_set ref_sim
             = Paging.Page_sim.mean_working_set fast
          && Paging.Page_sim.max_working_set ref_sim
             = Paging.Page_sim.max_working_set fast)
        pairs)

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
