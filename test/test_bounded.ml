(* The bounded LRU map: checked step by step against a naive model that
   keeps its bindings in a most-recently-used-first list. *)

type op = Find of int | Peek of int | Add of int * int

let show_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v

(* The model: bindings most recently used first, plus an eviction count.
   [find] and [add] move their key to the front; an [add] past the cap
   drops the last binding. *)
type model = { mru : (int * int) list; evicted : int }

let model_step cap m = function
  | Peek k -> (List.assoc_opt k m.mru, m)
  | Find k -> (
      match List.assoc_opt k m.mru with
      | Some v -> (Some v, { m with mru = (k, v) :: List.remove_assoc k m.mru })
      | None -> (None, m))
  | Add (k, v) ->
      let mru = (k, v) :: List.remove_assoc k m.mru in
      if List.length mru > cap then
        let mru = List.filteri (fun i _ -> i < cap) mru in
        (None, { mru; evicted = m.evicted + 1 })
      else (None, { m with mru })

let bounded_step b = function
  | Peek k -> Placement.Bounded.peek b k
  | Find k -> Placement.Bounded.find b k
  | Add (k, v) ->
      Placement.Bounded.add b k v;
      None

let op_gen =
  QCheck.Gen.(
    let key = int_bound 5 in
    frequency
      [
        (3, map (fun k -> Find k) key);
        (2, map (fun k -> Peek k) key);
        (4, map2 (fun k v -> Add (k, v)) key (int_bound 99));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap %d: %s" cap
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 0 60) op_gen))

let prop_matches_model =
  QCheck.Test.make ~name:"Bounded agrees with a naive MRU-list LRU" ~count:500
    ops_arb (fun (cap, ops) ->
      let b = Placement.Bounded.create cap in
      ignore
        (List.fold_left
           (fun (m, i) op ->
             let want, m = model_step cap m op in
             let got = bounded_step b op in
             let fail what =
               QCheck.Test.fail_reportf "step %d (%s): %s differs" i
                 (show_op op) what
             in
             if got <> want then fail "lookup";
             if Placement.Bounded.length b <> List.length m.mru then
               fail "length";
             if Placement.Bounded.evictions b <> m.evicted then
               fail "evictions";
             let bindings =
               Placement.Bounded.fold (fun k v acc -> (k, v) :: acc) b []
             in
             if List.sort compare bindings <> List.sort compare m.mru then
               fail "key set";
             (m, i + 1))
           ({ mru = []; evicted = 0 }, 1)
           ops);
      true)

let cap_validated () =
  Alcotest.check_raises "cap 0 rejected"
    (Invalid_argument "Bounded.create: cap must be >= 1") (fun () ->
      ignore (Placement.Bounded.create 0))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "cap must be positive" `Quick cap_validated;
  ]
