(* E7 / Table 7: the effect of varying block size — 2048-byte
   direct-mapped cache, whole-block fill, blocks of 16 to 128 bytes. *)

let blocks = Paper.table7_blocks

let configs =
  List.map (fun block -> Icache.Config.make ~size:2048 ~block ()) blocks

let compute ctx = Sweep.compute ctx configs

let table ctx =
  Sweep.render
    ~title:
      "Table 7: effect of block size (2KB direct-mapped); cells are \
       measured (paper)"
    ~point_names:(List.map (fun b -> Printf.sprintf "%dB" b) blocks)
    ~paper:Paper.table7 (compute ctx)
