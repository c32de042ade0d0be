(* Bounded LRU map: a hashtable of slots stamped from a per-instance
   clock.  Stamps are unique, so the victim of an eviction (the smallest
   stamp) never depends on hashtable order. *)

type 'v slot = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  cap : int;
  slots : ('k, 'v slot) Hashtbl.t;
  counter : Obs.Metrics.counter option;
  mutable clock : int;
  mutable evictions : int;
}

let create ?counter cap =
  if cap < 1 then invalid_arg "Bounded.create: cap must be >= 1";
  let slots = Hashtbl.create (min cap 64) in
  { cap; slots; counter; clock = 0; evictions = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t k =
  match Hashtbl.find_opt t.slots k with
  | Some s ->
      s.stamp <- tick t;
      Some s.value
  | None -> None

let peek t k = Option.map (fun s -> s.value) (Hashtbl.find_opt t.slots k)

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k s acc ->
        match acc with
        | Some (_, stamp) when stamp < s.stamp -> acc
        | _ -> Some (k, s.stamp))
      t.slots None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.slots k;
      t.evictions <- t.evictions + 1;
      Option.iter Obs.Metrics.incr t.counter)
    victim

let add t k v =
  Hashtbl.replace t.slots k { value = v; stamp = tick t };
  if Hashtbl.length t.slots > t.cap then evict_oldest t

let fold f t init = Hashtbl.fold (fun k s acc -> f k s.value acc) t.slots init
let length t = Hashtbl.length t.slots
let evictions t = t.evictions
