(* The flow workloads: a closed loop of Ccdac.Flow.run calls at the
   `ccgen run` defaults (finfet tech, jobs = 1, verify and LVS on) over a
   weighted set of (style, bits) configurations in seeded order. *)

open Common

type config = { style : Ccplace.Style.t; bits : int; weight : int }

let cfg style bits weight = { style; bits; weight }

let styles bits =
  [ Ccplace.Style.Rowwise; Ccplace.Style.Spiral;
    Ccplace.Style.block_default ~bits; Ccplace.Style.Chessboard ]

(* Weights keep every reported percentile inside one configuration's
   latency band rather than on the edge between two of them; the run
   prints where each percentile landed. *)
let configs = function
  | "flow-large" ->
    (* op latency falls in two groups, rowwise ~ spiral below bc ~
       chessboard; weights 1:2:3:4 end the fast group at 0.3 and the bc
       band at 0.6, so p50 and p80 sit well inside the slow group *)
    List.map2 (fun s w -> cfg s 12 w) (styles 12) [ 1; 2; 3; 4 ]
  | "flow-paper" ->
    (* the paper's Table I-III matrix, four styles x 6-10 bits.  Equal
       weights would put p50 on the edge between two configurations;
       doubling the 6-bit configurations and the two fastest 8-bit ones
       gives 11 units below the 8-bit spiral/rowwise band, 4 in it and
       11 above, so p50 falls in the band's middle *)
    List.concat_map
      (fun bits ->
         List.map
           (fun s ->
              let doubled =
                bits = 6
                || (bits = 8
                    && (s = Ccplace.Style.Spiral || s = Ccplace.Style.Rowwise))
              in
              cfg s bits (if doubled then 2 else 1))
           (styles bits))
      [ 6; 7; 8; 9; 10 ]
  | w -> invalid_arg ("not a flow workload: " ^ w)

(* The highest percentile a run collects at least ten samples beyond:
   ~60-75 flow-large ops fit a run, so p90 would have fewer. *)
let tail_q = function "flow-large" -> 0.8 | _ -> 0.99

let label c = Layers.label c.style c.bits

type t = {
  workload : string;
  refs : (string * Layers.expected) list;
  next : unit -> config;
}

let expected t c =
  match List.assoc_opt (label c) t.refs with
  | Some e -> e
  | None -> failwith ("no reference for " ^ label c)

let setup ~workload ~seed ~reference =
  let refs = Layers.load_reference reference in
  let next =
    weighted_cycle ~seed (List.map (fun c -> (c, c.weight)) (configs workload))
  in
  let t = { workload; refs; next } in
  List.iter (fun c -> ignore (expected t c)) (configs workload);
  (* warm-up: one untimed op of every configuration, so lazy set-up is
     done before the clock starts.  Outputs are checked on the timed ops,
     which also count any failure this one would have shown. *)
  List.iter
    (fun c ->
       match Ccdac.Flow.run ~bits:c.bits c.style with
       | _ -> ()
       | exception _ -> ())
    (configs workload);
  t

(* Where a percentile landed: the configuration owning that rank and
   the share of that configuration's samples below it. *)
let landing samples q =
  let a = Array.of_list samples in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  let n = Array.length a in
  let i = max 0 (min (n - 1) (rank n q - 1)) in
  let _, lbl = a.(i) in
  let below = ref 0 and total = ref 0 in
  Array.iteri
    (fun j (_, l) ->
       if l = lbl then begin
         incr total;
         if j < i then incr below
       end)
    a;
  Printf.printf "  p%g lands in %s, %d of its %d samples below\n" (100. *. q)
    lbl !below !total

let print_configs samples =
  let by = Hashtbl.create 32 in
  List.iter
    (fun (ms, l) ->
       Hashtbl.replace by l (ms :: Option.value (Hashtbl.find_opt by l) ~default:[]))
    samples;
  Hashtbl.fold (fun l xs acc -> (median xs, l, List.length xs) :: acc) by []
  |> List.sort compare
  |> List.iter (fun (m, l, n) ->
      Printf.printf "  %-32s n=%-5d scaled p50 %.2f ms\n" l n m)

(* End-to-end run: time each Flow.run, check its values, and after the
   timed phase re-lint the last layout of every configuration to check
   the fired rule ids (layouts are deterministic per configuration).
   Host-speed calibrations sit between ops; the gated times are scaled
   by them. *)
let run_plain t ~seconds =
  let fails = failures () in
  let sp = speed () in
  (* (wall ms, label, calibration index) *)
  let samples = ref [] and attempted = ref 0 and done_ms = ref [] in
  let last_layout = Hashtbl.create 32 in
  let t_start = Clock.now_ns () in
  while ms_since t_start < 1e3 *. seconds do
    if calibration_due sp then calibrate sp;
    let c = t.next () in
    incr attempted;
    let t0 = Clock.now_ns () in
    let outcome =
      match Ccdac.Flow.run ~bits:c.bits c.style with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    (* a failed op is counted in [failed] and still timed *)
    samples := (ms_since t0, label c, latest sp) :: !samples;
    done_ms := ms_since t_start :: !done_ms;
    match outcome with
    | Error e -> fail fails (label c ^ ": " ^ e)
    | Ok r ->
      (match Layers.result_mismatches (expected t c) r with
       | [] ->
         let n = Option.fold ~none:0 ~some:(fun (_, _, n) -> n)
             (Hashtbl.find_opt last_layout (label c)) in
         Hashtbl.replace last_layout (label c) (c, r.Ccdac.Flow.layout, n + 1)
       | m :: _ -> fail fails (label c ^ ": " ^ m))
  done;
  let sc = scale sp in
  let elapsed_s = ms_since t_start /. 1e3 in
  Hashtbl.iter
    (fun l (c, layout, ops) ->
       let verify_rules = Layers.rule_ids (Verify.Engine.check_artifacts layout)
       and lvs_rules = Layers.rule_ids (Lvs.Check.check layout) in
       match Layers.rule_mismatches (expected t c) ~verify_rules ~lvs_rules with
       | [] -> ()
       | m :: _ ->
         (* every op of this configuration that passed so far is suspect *)
         for _ = 1 to ops do fail fails (l ^ ": " ^ m) done)
    last_layout;
  let ok = max 0 (!attempted - fails.count) in
  print_windows ~elapsed_s !done_ms;
  print_scale sc;
  let by_config = List.map (fun (ms, l, i) -> (scaled sc i ms, l)) !samples in
  print_configs by_config;
  let q = tail_q t.workload in
  landing by_config 0.5;
  landing by_config q;
  let lat = List.map (fun (ms, _, _) -> ms) !samples in
  let lat_scaled = List.map fst by_config in
  print_ladder "op (wall)" lat;
  print_ladder "op (scaled)" lat_scaled;
  (* reported, not gated: the tail moves with the host's bursts of
     slowness far more than the median does *)
  List.iter print_metric
    [ metric ~samples:ok ~note:"wall time, not scaled" "raw_ops_per_s" "1/s"
        (float_of_int ok /. sc.raw_s);
      percentile_metric ~name:"raw_flow_p50_ms" ~q:0.5 lat;
      percentile_metric ~name:(Printf.sprintf "op_p%g_ms" (100. *. q)) ~q lat_scaled ];
  { attempted = !attempted;
    failed = fails.count;
    failures = fails.reasons;
    metrics =
      [ metric ~samples:ok
          ~note:(Printf.sprintf "%d ok ops in %.2f s at the reference speed" ok sc.scaled_s)
          "ops_per_s" "1/s" (float_of_int ok /. sc.scaled_s);
        percentile_metric ~name:"flow_p50_ms" ~q:0.5 lat_scaled;
        metric ~note:"VmHWM of the flow process" "peak_rss_mb" "MB"
          (peak_rss_mb "self") ] }

(* Traced run: every op runs once through Flow.run (timed, untraced) and
   once through the benchmark's layer-by-layer composition; the two must
   agree exactly, and the traced one is also checked against the
   reference, rule ids included.  Standalone layer calls follow; the
   serve layer is timed on the request that asks for the same op, through
   an in-process engine, so that every traced run reports every layer. *)
let run_traced t ~seconds ~spans_path =
  let fails = failures () in
  let tr = tracer () and acc = Layers.acc () in
  let cache = Serve.Cache.create ~capacity:4096 ()
  and engine = Serve.Engine.create ~jobs:1 () in
  let attempted = ref 0 in
  let t_start = Clock.now_ns () in
  while ms_since t_start < 1e3 *. seconds do
    let c = t.next () in
    let op = !attempted in
    incr attempted;
    match
      let traced, mismatches =
        Layers.measured_op tr acc ~op ~tech:Layers.tech ~bits:c.bits c.style
      in
      let r = traced.Layers.result in
      let exp = expected t c in
      let mismatches =
        mismatches
        @ Layers.result_mismatches exp r
        @ Layers.rule_mismatches exp ~verify_rules:traced.Layers.verify_rules
          ~lvs_rules:traced.Layers.lvs_rules
      in
      let _mc, record =
        Layers.probes tr acc ~op ~tech:Layers.tech ~mc_seed:op ~mc_trials:Layers.mc_trials r
      in
      let line =
        Json.to_string
          (Serve.Request.to_json ~style:(Layers.wire_style c.style) ~bits:c.bits ())
      in
      Layers.serve_calls acc ~cache ~engine line
        (Json.to_string (Qor.Record.to_json record));
      mismatches
    with
    | [] -> ()
    | m :: _ -> fail fails (label c ^ ": " ^ m)
    | exception e -> fail fails (label c ^ ": " ^ Printexc.to_string e)
  done;
  Serve.Engine.shutdown engine;
  write_spans tr spans_path;
  { attempted = !attempted;
    failed = fails.count;
    failures = fails.reasons;
    metrics = Layers.layer_metrics acc }
