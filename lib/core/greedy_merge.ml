(* Greedy agglomerative merging: the best-pair merge loop behind ext-TSP
   chain merging and C3 call-chain clustering.

   Every id starts live.  Candidate pairs live in [pair_tbl], keyed
   (smaller id, larger id); a pair's best merge is computed once and
   cached in [gain_cache] until one of its ids changes.  Each round
   scans the pair table for the highest gain, applies that merge (the
   smaller id survives), then moves the retired id's pairs onto the
   survivor and drops the stale gains.  A retired id therefore never
   appears in the table again, which is all the liveness the loop needs.

   The scan visits pairs in [Hashtbl] order, and with gains within
   [epsilon] the first-seen pair can win over a later one, so the exact
   sequence of table operations below decides merges and must not
   change. *)

let epsilon = 1e-9

let best gain candidates =
  List.fold_left
    (fun best m ->
      let g = gain m in
      match best with
      | Some (bg, _) when bg >= g -> best
      | _ when g > epsilon -> Some (g, m)
      | _ -> best)
    None candidates

let run ~counter ~pairs ~gain ~merge =
  let pair_tbl = Hashtbl.create 64 in
  pairs (fun a b ->
      if a <> b then begin
        let key = (min a b, max a b) in
        if not (Hashtbl.mem pair_tbl key) then Hashtbl.add pair_tbl key ()
      end);
  let gain_cache = Hashtbl.create 64 in
  let cached_gain ((a, b) as key) =
    match Hashtbl.find_opt gain_cache key with
    | Some g -> g
    | None ->
      let g = gain a b in
      Hashtbl.add gain_cache key g;
      g
  in
  let rec loop () =
    let chosen = ref None in
    Hashtbl.iter
      (fun key () ->
        match cached_gain key with
        | None -> ()
        | Some (g, m) -> (
          match !chosen with
          | Some (bg, _, _) when bg > g +. epsilon -> ()
          | Some (bg, bk, _) when bg >= g -. epsilon && compare bk key <= 0 ->
            ()
          | _ -> chosen := Some (g, key, m)))
      pair_tbl;
    match !chosen with
    | None -> ()
    | Some (_, (a, b), m) ->
      Obs.Metrics.incr counter;
      merge a b m;
      (* Re-key pairs that referenced [b] onto [a]; drop stale gains of
         every pair touching either merged id. *)
      let stale = ref [] and rekeyed = ref [] in
      Hashtbl.iter
        (fun (x, y) () ->
          if x = a || y = a || x = b || y = b then begin
            stale := (x, y) :: !stale;
            let x' = if x = b then a else x and y' = if y = b then a else y in
            if x' <> y' then rekeyed := (min x' y', max x' y') :: !rekeyed
          end)
        pair_tbl;
      List.iter
        (fun key ->
          Hashtbl.remove pair_tbl key;
          Hashtbl.remove gain_cache key)
        !stale;
      List.iter
        (fun key ->
          if not (Hashtbl.mem pair_tbl key) then Hashtbl.add pair_tbl key ())
        !rekeyed;
      loop ()
  in
  loop ()

let distinct id xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = id x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    xs

let by_density ~id ~density ~first groups =
  first
  :: List.sort
       (fun a b ->
         match compare (density b) (density a) with
         | 0 -> compare (id a) (id b)
         | c -> c)
       (List.filter (fun g -> id g <> id first) (distinct id groups))
