(* Shared helpers: clocks, order statistics, memory high-water marks,
   seeded shuffles, set-up repetition and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed.  The shared vCPUs this benchmark runs on drift in speed
   by up to 1.5x over tens of seconds (CPU time tracks wall time, so it
   is not preemption), and memory-bound code drifts most.  [calibrate]
   times a fixed load that no change to the program can affect: a
   register-only loop plus random lookups and updates in a 2 MiB
   open-addressing table outside the OCaml heap, so it neither
   allocates nor moves the memory high-water mark by more than the
   table.  [at_reference] rescales a wall time measured between two
   calibrations to the speed at which that load takes
   [reference_calib_s].  Raw times are logged beside. *)
let calib_slots = 1 lsl 17

let calib_slot k = (k * 0x9E3779B1) lsr 7 land (calib_slots - 1)

let rec calib_find t k s =
  if t.{2 * s} = k then s else calib_find t k ((s + 1) land (calib_slots - 1))

let calib_table =
  lazy
    (let t = Bigarray.(Array1.create int c_layout (2 * calib_slots)) in
     Bigarray.Array1.fill t (-1);
     for i = 0 to (calib_slots / 2) - 1 do
       let k = i * 7919 in
       let rec free s = if t.{2 * s} < 0 then s else free ((s + 1) land (calib_slots - 1)) in
       let s = free (calib_slot k) in
       t.{2 * s} <- k;
       t.{(2 * s) + 1} <- i
     done;
     t)

let calib_load () =
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + (!x land 255)
  done;
  let t = Lazy.force calib_table in
  for i = 0 to 399_999 do
    let k = (i * 40503 land ((calib_slots / 2) - 1)) * 7919 in
    let s = calib_find t k (calib_slot k) in
    let v = t.{(2 * s) + 1} in
    t.{(2 * s) + 1} <- v + 1;
    acc := !acc + v
  done;
  Sys.opaque_identity !acc

let calibrate () =
  median (List.init 5 (fun _ -> snd (time (fun () -> ignore (calib_load ())))))

let reference_calib_s = 0.022

let at_reference ~before ~after dt =
  dt *. reference_calib_s /. ((before +. after) /. 2.0)

(* [f ()] timed between the calibration [before] and a fresh one:
   (result, raw seconds, reference seconds, the fresh calibration). *)
let timed ~before f =
  let r, raw = time f in
  let after = calibrate () in
  (r, raw, at_reference ~before ~after raw, after)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* VmHWM of a live process (ourselves by default), in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | None -> failwith "VmHWM missing from /proc status"
    | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | Some _ -> go ()
  in
  go ()

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Run [pass ()] between calibrations until [seconds] have passed and
   at least three passes ran.  [keep result factor] (untimed) picks what
   to retain, [factor] rescaling the pass's own times to reference
   speed.  Returns (reference seconds, kept) per pass. *)
let passes ~label ~seconds ~keep pass =
  let t0 = now () in
  let rec go acc before =
    let r, raw, dt, after = timed ~before pass in
    say "%s pass %.3f s (%.3f s at reference speed)" label raw dt;
    let acc = (dt, keep r (dt /. raw)) :: acc in
    if List.length acc >= 3 && now () -. t0 >= seconds then List.rev acc else go acc after
  in
  go [] (calibrate ())

(* Run a set-up [reps] times and return the last repetition's value
   with the median set-up time at reference speed.  Earlier repetitions
   run in forked children so each starts from the same cold process
   state; call this before any domain is spawned. *)
let repeat_setup ~reps f =
  let child () =
    flush_all ();
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let _, dt = time f in
        let oc = Unix.out_channel_of_descr wr in
        Printf.fprintf oc "%.17g\n" dt;
        close_out oc;
        Unix._exit 0
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let line = In_channel.input_line ic in
        close_in ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "set-up repetition failed");
        float_of_string (Option.get line)
  in
  let rec go k before acc =
    if k = 1 then begin
      let r, _, dt, _ = timed ~before f in
      (r, median (dt :: acc))
    end
    else begin
      let raw = child () in
      let after = calibrate () in
      go (k - 1) after (at_reference ~before ~after raw :: acc)
    end
  in
  go reps (calibrate ()) []

(* A check failure: counted against the attempted operations and
   reported on stderr, never fatal. *)
let mismatch fmt = Printf.ksprintf (fun s -> prerr_endline ("MISMATCH " ^ s)) fmt

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_line ~attempted ~failed metrics =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool (failed = 0));
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obj [ ("value", Float m.value); ("unit", String m.unit_) ]
                  ))
                metrics) );
       ])
