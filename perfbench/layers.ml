(* The layers of one flow op, called one by one through their public
   functions and wrapped in the benchmark's own spans; the committed
   reference the ops are checked against; and the per-layer metric
   catalogue every traced run prints. *)

open Common

let tech = Tech.Process.finfet_12nm

(* Monte-Carlo trials of the serve requests that ask for them, and of
   the standalone Monte-Carlo call in traced runs. *)
let mc_trials = 200

let label style bits = Qor.Record.label ~style:(Ccplace.Style.name style) ~bits

(* The wire name of a style in serve requests (block chessboard at its
   default core and granularity, as ccgen run uses it). *)
let wire_style = function
  | Ccplace.Style.Spiral -> "spiral"
  | Ccplace.Style.Chessboard -> "chessboard"
  | Ccplace.Style.Rowwise -> "rowwise"
  | Ccplace.Style.Block_chess _ -> "bc"

(* ---- reference outputs ---- *)

type expected = {
  via_cuts : int;
  critical_bit : int;
  f3db_mhz : float;
  max_inl : float;
  max_dnl : float;
  verify_rules : string list;
  lvs_rules : string list;
}

let rule_ids diags = Verify.Diagnostic.rule_ids diags

let expected_of_result (r : Ccdac.Flow.result) =
  { via_cuts = r.Ccdac.Flow.parasitics.Extract.Parasitics.total_via_cuts;
    critical_bit = r.Ccdac.Flow.critical_bit;
    f3db_mhz = r.Ccdac.Flow.f3db_mhz;
    max_inl = r.Ccdac.Flow.max_inl;
    max_dnl = r.Ccdac.Flow.max_dnl;
    verify_rules = rule_ids (Verify.Engine.check_artifacts r.Ccdac.Flow.layout);
    lvs_rules = rule_ids (Lvs.Check.check r.Ccdac.Flow.layout) }

let expected_to_json e =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [ ("via_cuts", Json.Num (float_of_int e.via_cuts));
      ("critical_bit", Json.Num (float_of_int e.critical_bit));
      ("f3db_mhz", Json.Num e.f3db_mhz);
      ("max_inl_lsb", Json.Num e.max_inl);
      ("max_dnl_lsb", Json.Num e.max_dnl);
      ("verify_rules", strs e.verify_rules);
      ("lvs_rules", strs e.lvs_rules) ]

let expected_of_json j =
  let num k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some f -> f
    | None -> failwith ("reference entry lacks " ^ k)
  in
  let strs k =
    match Option.bind (Json.member k j) Json.to_list with
    | Some l -> List.filter_map Json.to_str l
    | None -> failwith ("reference entry lacks " ^ k)
  in
  { via_cuts = int_of_float (num "via_cuts");
    critical_bit = int_of_float (num "critical_bit");
    f3db_mhz = num "f3db_mhz";
    max_inl = num "max_inl_lsb";
    max_dnl = num "max_dnl_lsb";
    verify_rules = strs "verify_rules";
    lvs_rules = strs "lvs_rules" }

let load_reference path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Json.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok (Json.Obj entries) ->
    List.map (fun (k, v) -> (k, expected_of_json v)) entries
  | Ok _ -> failwith (path ^ ": expected an object")

(* Mismatches of one op's values against its reference: via cuts and
   the critical bit exactly, f3dB/INL/DNL within the committed QoR
   policy tolerances. *)
let value_mismatches exp ~via_cuts ~critical_bit ~f3db_mhz ~max_inl ~max_dnl =
  let exact what want got =
    if want = got then [] else [ Printf.sprintf "%s %d, expected %d" what got want ]
  in
  let judged id want got =
    match Qor.Policy.find id with
    | None -> [ "no QoR policy " ^ id ]
    | Some policy ->
      (match
         Qor.Policy.judge policy ~repeat:1 ~baseline:(Qor.Policy.Scalar want)
           ~current:(Qor.Policy.Scalar got)
       with
       | Qor.Policy.Unchanged, _ -> []
       | _, why -> [ why ])
  in
  exact "via cuts" exp.via_cuts via_cuts
  @ exact "critical bit" exp.critical_bit critical_bit
  @ judged "qor/f3db_mhz" exp.f3db_mhz f3db_mhz
  @ judged "qor/max_inl_lsb" exp.max_inl max_inl
  @ judged "qor/max_dnl_lsb" exp.max_dnl max_dnl

let result_mismatches exp (r : Ccdac.Flow.result) =
  value_mismatches exp
    ~via_cuts:r.Ccdac.Flow.parasitics.Extract.Parasitics.total_via_cuts
    ~critical_bit:r.Ccdac.Flow.critical_bit ~f3db_mhz:r.Ccdac.Flow.f3db_mhz
    ~max_inl:r.Ccdac.Flow.max_inl ~max_dnl:r.Ccdac.Flow.max_dnl

let rule_mismatches exp ~verify_rules ~lvs_rules =
  let same what want got =
    if want = got then []
    else
      [ Printf.sprintf "%s rules {%s}, expected {%s}" what
          (String.concat "," got) (String.concat "," want) ]
  in
  same "verify" exp.verify_rules verify_rules
  @ same "lvs" exp.lvs_rules lvs_rules

(* The same checks on the QoR record a serve response carries. *)
let record_mismatches exp (r : Qor.Record.t) =
  value_mismatches exp ~via_cuts:r.Qor.Record.via_cuts
    ~critical_bit:r.Qor.Record.critical_bit ~f3db_mhz:r.Qor.Record.f3db_mhz
    ~max_inl:r.Qor.Record.max_inl_lsb ~max_dnl:r.Qor.Record.max_dnl_lsb
  @ rule_mismatches exp ~verify_rules:r.Qor.Record.verify_rules
    ~lvs_rules:r.Qor.Record.lvs_rules

(* Fields a second computation must reproduce bit for bit. *)
let same_outputs (a : Ccdac.Flow.result) (b : Ccdac.Flow.result) =
  let pa = a.Ccdac.Flow.parasitics and pb = b.Ccdac.Flow.parasitics in
  pa.Extract.Parasitics.total_via_cuts = pb.Extract.Parasitics.total_via_cuts
  && a.Ccdac.Flow.critical_bit = b.Ccdac.Flow.critical_bit
  && Float.equal pa.Extract.Parasitics.total_wirelength
       pb.Extract.Parasitics.total_wirelength
  && Float.equal a.Ccdac.Flow.f3db_mhz b.Ccdac.Flow.f3db_mhz
  && Float.equal a.Ccdac.Flow.max_inl b.Ccdac.Flow.max_inl
  && Float.equal a.Ccdac.Flow.max_dnl b.Ccdac.Flow.max_dnl
  && Float.equal a.Ccdac.Flow.tau_fs b.Ccdac.Flow.tau_fs
  && Float.equal a.Ccdac.Flow.area b.Ccdac.Flow.area

(* ---- per-layer samples ---- *)

(* Per-op observations, keyed by metric name. *)
type acc = (string, float list) Hashtbl.t

let acc () : acc = Hashtbl.create 64

let add (acc : acc) name v =
  Hashtbl.replace acc name
    (v :: Option.value (Hashtbl.find_opt acc name) ~default:[])

let mw words = words /. 1e6

(* Metric names follow the span names: "ccplace" gives "ccplace.ms",
   "dacmodel.analyse" gives "dacmodel.analyse_ms". *)
let span_metric span_name what =
  span_name ^ (if String.contains span_name '.' then "_" else ".") ^ what

(* ---- the traced composition ---- *)

type traced = {
  result : Ccdac.Flow.result;
  verify_rules : string list;
  lvs_rules : string list;
}

(* One op: the layer calls Flow.run composes, in its order, each in a
   child span of the op's root span.  Gates raise
   Verify.Engine.Rejected exactly as the flow's do. *)
let traced_flow tr acc ~op ~tech ~bits style =
  let spans_of_op = ref [] in
  let traced =
    span tr ~op "op" (fun root ->
        let child name f =
          let v = span tr ~op ~parent:root name (fun _ -> f ()) in
          spans_of_op := List.hd tr.spans :: !spans_of_op;
          v
        in
        let placement =
          child "ccplace" (fun () -> Ccplace.Style.place ~bits style)
        in
        let layout =
          child "ccroute" (fun () ->
              Ccroute.Layout.route tech
                ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style)
                placement)
        in
        let what = Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits in
        (* a gate's error count is recorded before the gate can raise *)
        let gate name diags =
          add acc (name ^ ".errors")
            (float_of_int (List.length (Verify.Diagnostic.errors diags)));
          Verify.Engine.assert_clean ~what diags
        in
        let verify_diags =
          child "verify" (fun () ->
              let d = Verify.Engine.check_artifacts layout in
              gate "verify" d;
              d)
        in
        let lvs =
          child "lvs" (fun () ->
              let r = Lvs.Check.run layout in
              gate "lvs" r.Lvs.Check.diagnostics;
              r)
        in
        let parasitics =
          child "extract" (fun () -> Extract.Parasitics.extract layout)
        in
        let nonlinearity =
          child "dacmodel.analyse" (fun () ->
              Dacmodel.Nonlinearity.analyze tech
                ~top_parasitic:parasitics.Extract.Parasitics.total_top_cap
                placement)
        in
        let tau_fs = parasitics.Extract.Parasitics.critical_elmore_fs in
        let place_route_ms =
          List.fold_left
            (fun a s ->
               if s.name = "ccplace" || s.name = "ccroute" then a +. span_ms s
               else a)
            0. !spans_of_op
        in
        add acc "ccplace.cells"
          (float_of_int
             (placement.Ccgrid.Placement.rows * placement.Ccgrid.Placement.cols));
        add acc "ccroute.tracks"
          (float_of_int (Ccroute.Plan.total_tracks layout.Ccroute.Layout.plan));
        add acc "lvs.shapes" (float_of_int lvs.Lvs.Check.stats.Lvs.Check.shapes);
        add acc "extract.via_cuts"
          (float_of_int parasitics.Extract.Parasitics.total_via_cuts);
        add acc "dacmodel.codes"
          (float_of_int (Array.length nonlinearity.Dacmodel.Nonlinearity.inl));
        { result =
            { Ccdac.Flow.style;
              bits;
              tech;
              placement;
              layout;
              parasitics;
              nonlinearity;
              max_inl = nonlinearity.Dacmodel.Nonlinearity.max_abs_inl;
              max_dnl = nonlinearity.Dacmodel.Nonlinearity.max_abs_dnl;
              tau_fs;
              f3db_mhz = Dacmodel.Speed.f3db_mhz ~bits ~tau_fs;
              critical_bit = parasitics.Extract.Parasitics.critical_bit;
              area = parasitics.Extract.Parasitics.area;
              telemetry = Telemetry.Summary.empty;
              elapsed_place_route_s = place_route_ms /. 1e3 };
          verify_rules = rule_ids verify_diags;
          lvs_rules = rule_ids lvs.Lvs.Check.diagnostics })
  in
  let root = List.hd tr.spans in
  let children = !spans_of_op in
  List.iter
    (fun s ->
       add acc (span_metric s.name "ms") (span_ms s);
       add acc (span_metric s.name "alloc_mw") (mw s.alloc_words))
    children;
  let covered = List.fold_left (fun a s -> a +. span_ms s) 0. children in
  add acc "trace.op_ms" (span_ms root);
  add acc "trace.unaccounted_ms" (span_ms root -. covered);
  add acc "trace.unaccounted_share" ((span_ms root -. covered) /. span_ms root);
  traced

(* One op twice: through Flow.run, timed but untraced, then through the
   traced composition.  The two must agree exactly; the ratio of their
   times is the tracing overhead. *)
let measured_op tr acc ~op ~tech ~bits style =
  let t0 = Clock.now_ns () in
  let plain = Ccdac.Flow.run ~tech ~bits style in
  let untraced_ms = ms_since t0 in
  let traced = traced_flow tr acc ~op ~tech ~bits style in
  let root = List.hd tr.spans in
  add acc "trace.untraced_op_ms" untraced_ms;
  add acc "trace.overhead_ratio" (span_ms root /. untraced_ms);
  ( traced,
    if same_outputs plain traced.result then []
    else [ "traced composition differs from Flow.run" ] )

(* Standalone calls after the op, on the same placement: the covariance
   build and Cholesky factorization the analysis and Monte-Carlo stages
   contain (so their self times follow by subtraction), the Monte-Carlo
   stage itself, and the QoR record a serve response carries.  Returns
   the Monte-Carlo summary and the record. *)
let probes tr acc ~op ~tech ~mc_seed ~mc_trials (r : Ccdac.Flow.result) =
  let placement = r.Ccdac.Flow.placement in
  let last () = List.hd tr.spans in
  let cov =
    span tr ~op "capmodel.covariance" (fun _ ->
        Capmodel.Covariance.build tech
          (Ccgrid.Placement.positions_by_cap tech placement))
  in
  let cov_span = last () in
  let _factor =
    span tr ~op "capmodel.factorize" (fun _ -> Capmodel.Gauss.factorize cov)
  in
  let factor_span = last () in
  let mc =
    span tr ~op "dacmodel.mc" (fun _ ->
        Dacmodel.Montecarlo.run tech ~seed:mc_seed ~jobs:1 ~trials:mc_trials
          placement)
  in
  let mc_span = last () in
  let record, bytes =
    span tr ~op "qor" (fun _ ->
        let record = Qor.Record.of_result r in
        (record, Json.to_string (Qor.Record.to_json record)))
  in
  let qor_span = last () in
  let cells =
    Array.fold_left (fun a ps -> a + Array.length ps) 0
      (Ccgrid.Placement.positions_by_cap tech placement)
  in
  (* the op's analysis span was the last one recorded *)
  let analyse_ms =
    match Hashtbl.find_opt acc "dacmodel.analyse_ms" with
    | Some (v :: _) -> v
    | _ -> Float.nan
  in
  add acc "capmodel.covariance_ms" (span_ms cov_span);
  add acc "capmodel.covariance_alloc_mw" (mw cov_span.alloc_words);
  add acc "capmodel.cell_pairs" (float_of_int (cells * (cells - 1) / 2));
  add acc "capmodel.factorize_ms" (span_ms factor_span);
  add acc "dacmodel.analyse_self_ms" (analyse_ms -. span_ms cov_span);
  add acc "dacmodel.mc_ms" (span_ms mc_span);
  add acc "dacmodel.mc_self_ms"
    (span_ms mc_span -. span_ms cov_span -. span_ms factor_span);
  add acc "dacmodel.mc_trials" (float_of_int mc_trials);
  add acc "qor.ms" (span_ms qor_span);
  add acc "qor.payload_bytes" (float_of_int (String.length bytes));
  (mc, record)

(* The serve layer's public calls on one request line: parse, a lookup
   in a result cache holding [payload] under the request's key, and the
   whole request through [engine] when one is given. *)
let serve_calls acc ~cache ?engine line payload =
  let t0 = Clock.now_ns () in
  let parsed = Serve.Request.of_line line in
  add acc "serve.parse_us" (1e3 *. ms_since t0);
  (match parsed with
   | Error _ -> add acc "serve.errors" 1.
   | Ok req ->
     let key =
       Serve.Cache.key ~tech:req.Serve.Request.tech
         ~style:req.Serve.Request.style ~bits:req.Serve.Request.bits
         ~seed:req.Serve.Request.seed ~trials:req.Serve.Request.trials
     in
     let t0 = Clock.now_ns () in
     let found = Serve.Cache.find cache key in
     add acc "serve.cache_find_us" (1e3 *. ms_since t0);
     if Option.is_none found then Serve.Cache.store cache key payload);
  match engine with
  | None -> ()
  | Some engine ->
    let t0 = Clock.now_ns () in
    let o = Serve.Engine.handle_line engine line in
    let call_ms = ms_since t0 in
    let elapsed_ms =
      match Json.parse o.Serve.Engine.line with
      | Ok j -> Option.bind (Json.member "elapsed_ms" j) Json.to_float
      | Error _ -> None
    in
    (match o.Serve.Engine.code, elapsed_ms with
     | None, Some e ->
       add acc "serve.engine_ms" e;
       add acc "serve.wait_ms" (call_ms -. e);
       add acc "serve.hit_ratio" (if o.Serve.Engine.cached then 1. else 0.);
       add acc "serve.errors" 0.
     | _ -> add acc "serve.errors" 1.);
    add acc "serve.busy" 0.

(* ---- the per-layer catalogue ---- *)

type kind = Median | Sum | Mean

(* Every traced run prints exactly these, in this order.  What each layer
   should move end to end, if it got faster:
   - ccplace: ops_per_s on flow-large, where placement is quadratic;
   - ccroute, verify, extract: ops_per_s on flow-paper;
   - lvs: flow_p50_ms on flow-paper, whose median op it dominates;
   - capmodel (covariance, factorize) and dacmodel.analyse: ops_per_s and
     flow_p50_ms on flow-large, flow_p50_ms on serve-mix; never the warm
     requests of serve-mix;
   - dacmodel.mc: the Monte-Carlo cold requests, i.e. serve-mix's cold
     tail in its report;
   - qor: flow_p50_ms on serve-mix;
   - serve (parse, cache lookup, engine, wait): ops_per_s on serve-mix
     and the warm latencies in its report. *)
let catalogue =
  [ ("ccplace.ms", "ms", Median);
    ("ccplace.cells", "count", Median);
    ("ccplace.alloc_mw", "Mword", Median);
    ("ccroute.ms", "ms", Median);
    ("ccroute.tracks", "count", Median);
    ("ccroute.alloc_mw", "Mword", Median);
    ("verify.ms", "ms", Median);
    ("verify.errors", "count", Sum);
    ("lvs.ms", "ms", Median);
    ("lvs.shapes", "count", Median);
    ("lvs.errors", "count", Sum);
    ("lvs.alloc_mw", "Mword", Median);
    ("extract.ms", "ms", Median);
    ("extract.via_cuts", "count", Median);
    ("capmodel.covariance_ms", "ms", Median);
    ("capmodel.cell_pairs", "count", Median);
    ("capmodel.covariance_alloc_mw", "Mword", Median);
    ("capmodel.factorize_ms", "ms", Median);
    ("dacmodel.analyse_ms", "ms", Median);
    ("dacmodel.analyse_self_ms", "ms", Median);
    ("dacmodel.codes", "count", Median);
    ("dacmodel.mc_ms", "ms", Median);
    ("dacmodel.mc_self_ms", "ms", Median);
    ("dacmodel.mc_trials", "count", Median);
    ("qor.ms", "ms", Median);
    ("qor.payload_bytes", "bytes", Median);
    ("serve.parse_us", "us", Median);
    ("serve.cache_find_us", "us", Median);
    ("serve.engine_ms", "ms", Median);
    ("serve.wait_ms", "ms", Median);
    ("serve.hit_ratio", "ratio", Mean);
    ("serve.errors", "count", Sum);
    ("serve.busy", "count", Sum);
    ("trace.op_ms", "ms", Median);
    ("trace.untraced_op_ms", "ms", Median);
    ("trace.overhead_ratio", "ratio", Median);
    ("trace.unaccounted_ms", "ms", Median);
    ("trace.unaccounted_share", "ratio", Median) ]

let layer_metrics (acc : acc) =
  List.map
    (fun (name, unit_, kind) ->
       match Hashtbl.find_opt acc name with
       | None | Some [] -> failwith ("no samples for per-layer metric " ^ name)
       | Some xs ->
         let n = List.length xs in
         let value =
           match kind with
           | Median -> median xs
           | Sum -> List.fold_left ( +. ) 0. xs
           | Mean -> List.fold_left ( +. ) 0. xs /. float_of_int n
         in
         metric ~samples:n name unit_ value)
    catalogue
