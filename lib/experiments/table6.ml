(* E6 / Table 6: the effect of varying cache size — direct-mapped caches
   with 64-byte blocks, whole-block fill, sizes 8K down to 0.5K. *)

let sizes = Paper.table6_sizes

let configs =
  List.map (fun size -> Icache.Config.make ~size ~block:64 ()) sizes

let compute ctx = Sweep.compute ctx configs

let table ctx =
  Sweep.render
    ~title:
      "Table 6: effect of cache size (direct-mapped, 64B blocks); cells \
       are measured (paper)"
    ~point_names:(List.map (fun s -> Printf.sprintf "%dK" (s / 1024)) sizes
                  |> List.map (function "0K" -> "0.5K" | s -> s))
    ~paper:Paper.table6 (compute ctx)
