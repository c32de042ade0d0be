(* Call-chain clustering (C3) function ordering, after Ottoni & Maher
   ("Optimizing Function Placement for Large-Scale Data-Center
   Applications", CGO 2017) and the merge-gain refinement of Hoag,
   Pupyrev et al. ("Optimizing Function Layout for Mobile
   Applications").

   Functions start as singleton clusters.  The optimizer,
   [Greedy_merge.run] (shared with ext-TSP chain merging), repeatedly
   merges the pair of call-connected clusters with the highest merge
   gain; this module supplies that gain and the cluster update.  The
   gain of placing cluster X directly before cluster Y
   scores every call arc between the two by its proximity in the
   concatenated layout:

     gain(X.Y) = sum over cross arcs (f,g)  w(f,g) * max(0, 1 - d/D)

   with d the byte distance between the two function entry points in
   X.Y and D the locality horizon [distance_horizon] (one 4KB page: a
   caller/callee pair further apart than a page shares neither a cache
   line nor a page, so merging earns nothing).  Both concatenation
   orders are scored; a merge is rejected when the combined cluster
   would exceed [max_cluster_bytes] — the capped cluster size keeps one
   cold call from chaining the whole program into a single cluster.

   Clusters are emitted with the entry function's cluster first, the
   remaining executed clusters by decreasing density (samples per byte,
   the C3 paper's final ordering), and never-executed functions last in
   definition order. *)

let max_cluster_bytes = 16384
let distance_horizon = 4096.

(* Telemetry: accepted cluster merges. *)
let clusters_merged =
  Obs.Metrics.counter "layout.clusters_merged"
    ~help:"C3 call-chain cluster merges applied"

type cluster = {
  cid : int; (* stable id, for deterministic tie-breaking *)
  mutable funcs : int list; (* placement order, head first *)
  mutable bytes : int;
  mutable samples : int; (* total entry count *)
}

let global nfuncs ~entry (w : Weight.call_weights) : Global_layout.t =
  (* Undirected cross-cluster call weight per function pair. *)
  let arc_tbl = Weight.call_pairs nfuncs w in
  let size fid = max 1 (w.size fid) in
  let cluster_of =
    Array.init nfuncs (fun fid ->
      { cid = fid; funcs = [ fid ]; bytes = size fid; samples = w.entries fid })
  in
  (* Entry-point byte offset of every function in a candidate
     concatenation, then the proximity-scored gain. *)
  let offsets funcs =
    let tbl = Hashtbl.create 16 in
    let cursor = ref 0 in
    List.iter
      (fun fid ->
        Hashtbl.add tbl fid !cursor;
        cursor := !cursor + size fid)
      funcs;
    tbl
  in
  let merge_gain ca cb =
    (* Cross arcs between the two clusters. *)
    let cross = ref [] in
    List.iter
      (fun f ->
        List.iter
          (fun g ->
            let key = (min f g, max f g) in
            match Hashtbl.find_opt arc_tbl key with
            | Some weight -> cross := (f, g, weight) :: !cross
            | None -> ())
          cb.funcs)
      ca.funcs;
    match !cross with
    | [] -> None
    | cross_arcs ->
      let score funcs =
        let off = offsets funcs in
        List.fold_left
          (fun acc (f, g, weight) ->
            let d =
              float_of_int (abs (Hashtbl.find off g - Hashtbl.find off f))
            in
            acc +. (float_of_int weight *. Stdlib.max 0. (1. -. (d /. distance_horizon))))
          0. cross_arcs
      in
      (* The entry function must stay at the very front of its cluster. *)
      let candidates =
        List.filter
          (fun funcs -> match funcs with
            | first :: _ ->
              (not (List.mem entry funcs)) || first = entry
            | [] -> false)
          [ ca.funcs @ cb.funcs; cb.funcs @ ca.funcs ]
      in
      Greedy_merge.best score candidates
  in
  (* Candidate cluster pairs: those connected by a call arc. *)
  Greedy_merge.run ~counter:clusters_merged
    ~pairs:(fun connect -> Hashtbl.iter (fun (f, g) _ -> connect f g) arc_tbl)
    ~gain:(fun a b ->
      let ca = cluster_of.(a) and cb = cluster_of.(b) in
      if ca.bytes + cb.bytes > max_cluster_bytes then None
      else merge_gain ca cb)
    ~merge:(fun a b funcs ->
      let ca = cluster_of.(a) and cb = cluster_of.(b) in
      ca.funcs <- funcs;
      ca.bytes <- ca.bytes + cb.bytes;
      ca.samples <- ca.samples + cb.samples;
      List.iter (fun fid -> cluster_of.(fid) <- ca) cb.funcs);
  (* Emission order: entry cluster, executed clusters by density, cold
     functions in definition order. *)
  let executed fid = w.entries fid > 0 || fid = entry in
  let density c = float_of_int c.samples /. float_of_int (max 1 c.bytes) in
  let clusters =
    Greedy_merge.by_density
      ~id:(fun c -> c.cid)
      ~density ~first:cluster_of.(entry)
      (List.filteri (fun fid _ -> executed fid) (Array.to_list cluster_of))
  in
  let hot = List.concat_map (fun c -> List.filter executed c.funcs) clusters in
  let cold =
    List.filter (fun fid -> not (executed fid)) (List.init nfuncs (fun i -> i))
  in
  { Global_layout.order = Array.of_list (hot @ cold) }
