(* Shared plumbing of the benchmark program: samples and percentiles,
   metric reporting, process memory, host-speed calibration, a weighted
   schedule, and the benchmark's own span recorder. *)

module Json = Telemetry.Json
module Clock = Telemetry.Clock

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (Clock.now_ns ())

(* ---- samples ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Ceiling nearest-rank, the toolkit's own convention
   (Dacmodel.Montecarlo.percentile): the q-quantile of n samples is the
   ceil(q n)-th smallest. *)
let rank n q = int_of_float (Float.ceil (q *. float_of_int n))

(* Samples strictly above the q-quantile's rank. *)
let beyond n q = n - rank n q

let quantile xs q =
  match xs with
  | [] -> Float.nan
  | _ -> Dacmodel.Montecarlo.percentile (sorted xs) q

let median xs = quantile xs 0.5

(* ---- metrics ---- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;   (* how many observations the value summarises *)
  note : string;
}

let metric ?(samples = 1) ?(note = "") name unit_ value =
  { name; value; unit_; samples; note }

(* A latency percentile, with the guide's sample-count rule made
   visible: the note says how many samples lie beyond it. *)
let percentile_metric ~name ~q xs =
  let n = List.length xs in
  let b = beyond n q in
  let note =
    Printf.sprintf "p%g of %d, %d beyond%s" (100. *. q) n b
      (if b < 10 then " (FEWER THAN 10)" else "")
  in
  metric ~samples:n ~note name "ms" (quantile xs q)

(* Completed ops per second in each of six equal windows of the timed
   phase, from the ops' completion times (ms since its start): shows
   whether the host's speed drifted within the run. *)
let print_windows ~elapsed_s done_ms =
  let n = 6 in
  let counts = Array.make n 0 in
  let w = 1e3 *. elapsed_s /. float_of_int n in
  List.iter
    (fun t ->
       let i = min (n - 1) (int_of_float (t /. w)) in
       counts.(i) <- counts.(i) + 1)
    done_ms;
  Printf.printf "  ops/s in %d windows:%s\n" n
    (String.concat ""
       (Array.to_list
          (Array.map (fun c -> Printf.sprintf " %.1f" (1e3 *. float_of_int c /. w)) counts)))

(* The latency distribution at a glance, for choosing and checking the
   reported percentiles. *)
let print_ladder what xs =
  Printf.printf "  %s latency (n=%d):%s\n" what (List.length xs)
    (String.concat ""
       (List.map
          (fun q -> Printf.sprintf " p%g %.4g" (100. *. q) (quantile xs q))
          [ 0.1; 0.25; 0.5; 0.75; 0.8; 0.9; 0.95; 0.99 ]))

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  failures : string list;   (* first few failure reasons *)
}

let print_metric m =
  Printf.printf "  %-30s %14.6g %-6s n=%-6d %s\n" m.name m.value m.unit_
    m.samples m.note

let print_outcome o =
  List.iter print_metric o.metrics;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) o.failures;
  let num f = Json.Num f in
  let json =
    Json.Obj
      [ ("attempted", num (float_of_int o.attempted));
        ("failed", num (float_of_int o.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", num m.value);
                        ("unit", Json.Str m.unit_);
                        ("samples", num (float_of_int m.samples)) ] ))
               o.metrics) ) ]
  in
  print_string ("RESULT " ^ Json.to_string json ^ "\n");
  flush stdout

(* Collects failure reasons, keeping the first few verbatim. *)
type failures = { mutable count : int; mutable reasons : string list }

let failures () = { count = 0; reasons = [] }

let fail f reason =
  f.count <- f.count + 1;
  if List.length f.reasons < 8 then f.reasons <- f.reasons @ [ reason ]

(* ---- process memory ---- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* ---- host speed ---- *)

(* On a shared host the speed of a core can move by up to ~40% within
   seconds while CPU time tracks wall time (a 2-vCPU Xeon VM did, with
   another tenant on the sibling hyperthread), so raw wall times measure
   the host as much as the program.  Every gated time is therefore
   scaled to a reference host speed: two small fixed kernels that do not
   call the toolkit, a float sort and a burst of minor-heap allocation,
   are timed on the same core between ops (run.py pins the worker, and
   the daemon it spawns, to one CPU), and each stretch of wall time is
   divided by the speed factor measured at its two ends.
   The report prints the raw wall-time figures beside the scaled ones. *)

let sort_input =
  let rng = Random.State.make [| 0x50f7 |] in
  Array.init 10_000 (fun _ -> Random.State.float rng 1.)

let kernel_sort () =
  let a = Array.copy sort_input in
  Array.sort Float.compare a;
  a.(0)

let kernel_alloc () =
  let l = ref [] in
  for i = 1 to 30_000 do
    l := (float_of_int i, i) :: !l
  done;
  List.fold_left (fun acc (f, _) -> acc +. f) 0. !l

(* Each kernel with its time on the reference host, about what an
   uncontended core of a 2-vCPU Xeon VM takes: a factor of 1 means the
   host runs at that speed, 1.3 that it is 30% slower. *)
let kernels = [ (kernel_sort, 2.5); (kernel_alloc, 1.6) ]

(* How much slower than the reference host the current core runs: the
   geometric mean of the kernels' time ratios. *)
let speed_factor () =
  let logs =
    List.map
      (fun (k, reference_ms) ->
         let t0 = Clock.now_ns () in
         ignore (Sys.opaque_identity (k ()));
         Float.log (ms_since t0 /. reference_ms))
      kernels
  in
  Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* A timed phase records a calibration between ops every
   [calibrate_every_ms]; an op is tagged with the index of the last
   calibration before it and scaled by the mean of that one and the
   next. *)
let calibrate_every_ms = 150.

type calibration = { c0 : int64; c1 : int64; factor : float }

type speed = { mutable cals : calibration list; mutable count : int }

let speed () = { cals = []; count = 0 }

let calibrate sp =
  let c0 = Clock.now_ns () in
  let factor = speed_factor () in
  sp.cals <- { c0; c1 = Clock.now_ns (); factor } :: sp.cals;
  sp.count <- sp.count + 1

let latest sp = sp.count - 1

let calibration_due sp =
  match sp.cals with
  | [] -> true
  | c :: _ -> ms_since c.c1 >= calibrate_every_ms

type scale = {
  seg : float array;     (* factor of the stretch after calibration i *)
  raw_s : float;         (* wall time between calibrations *)
  scaled_s : float;      (* the same at the reference speed *)
  factor_p50 : float;
}

(* Closes a timed phase with a last calibration. *)
let scale sp =
  calibrate sp;
  let cals = Array.of_list (List.rev sp.cals) in
  let n = Array.length cals - 1 in
  let seg = Array.init n (fun i -> sqrt (cals.(i).factor *. cals.(i + 1).factor)) in
  let raw = Array.init n (fun i -> ms_between cals.(i).c1 cals.(i + 1).c0 /. 1e3) in
  let sum = Array.fold_left ( +. ) 0. in
  { seg; raw_s = sum raw;
    scaled_s = sum (Array.mapi (fun i r -> r /. seg.(i)) raw);
    factor_p50 = median (Array.to_list (Array.map (fun c -> c.factor) cals)) }

let scaled sc i ms = ms /. sc.seg.(i)

let print_scale sc =
  Printf.printf
    "  host speed: %d calibrations, median factor %.3f (1 = reference), \
     %.2f s of ops = %.2f s at the reference speed\n"
    (Array.length sc.seg + 1) sc.factor_p50 sc.raw_s sc.scaled_s

(* ---- schedule ---- *)

(* Smooth weighted round robin: item i is picked weight_i times in
   every window of sum(weights) picks, spread evenly, so at any prefix
   each item's share is within a couple of picks of its weight.  The
   seed sets the starting phase, and with it the order. *)
let weighted_cycle ~seed items =
  let items = Array.of_list items in
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 items in
  let rng = Random.State.make [| seed; 0x5c4ed |] in
  let current = Array.map (fun _ -> Random.State.int rng total) items in
  fun () ->
    let best = ref 0 in
    Array.iteri
      (fun i (_, w) ->
         current.(i) <- current.(i) + w;
         if current.(i) > current.(!best) then best := i)
      items;
    current.(!best) <- current.(!best) - total;
    fst items.(!best)

(* ---- spans ---- *)

(* The benchmark's own trace: every span is named after the layer call
   it wraps, belongs to one op, and points at the span that caused it
   (-1 for an op's root).  Spans stay in memory and are written out when
   the run ends. *)
type span = {
  sid : int;
  parent : int;
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
  alloc_words : float;
}

type tracer = { mutable spans : span list; mutable next_sid : int }

let tracer () = { spans = []; next_sid = 0 }

(* Words allocated by this domain so far. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span tr ~op ?(parent = -1) name f =
  let sid = tr.next_sid in
  tr.next_sid <- sid + 1;
  let a0 = allocated_words () in
  let t0 = Clock.now_ns () in
  let close () =
    let t1 = Clock.now_ns () in
    let alloc_words = allocated_words () -. a0 in
    tr.spans <- { sid; parent; op; name; t0; t1; alloc_words } :: tr.spans
  in
  match f sid with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let span_ms s = ms_between s.t0 s.t1

let write_spans tr path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
           Out_channel.output_string oc
             (Json.to_string
                (Json.Obj
                   [ ("sid", Json.Num (float_of_int s.sid));
                     ("parent", Json.Num (float_of_int s.parent));
                     ("op", Json.Num (float_of_int s.op));
                     ("name", Json.Str s.name);
                     ("start_ns", Json.Num (Int64.to_float s.t0));
                     ("dur_ns", Json.Num (Int64.to_float (Int64.sub s.t1 s.t0)));
                     ("alloc_words", Json.Num s.alloc_words) ])
              ^ "\n"))
        (List.rev tr.spans))
