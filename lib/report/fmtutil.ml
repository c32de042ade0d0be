(* Numeric formatting shared by the experiment tables. *)

(* Percentages in the paper's style: "2.70%". *)
let pct ?(digits = 2) x = Printf.sprintf "%.*f%%" digits (100. *. x)

(* Raw ratio as percent value already scaled (e.g. code increase 0.17 ->
   "17%"). *)
let pct0 x = Printf.sprintf "%.0f%%" (100. *. x)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x

(* Instruction/byte counts in the paper's style: "11.7M", "2.2K". *)
let human n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.1fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.1fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fK" (f /. 1e3)
  else string_of_int n
