exception Rejected = Diag.Rejected

let rules =
  Diag.catalogue ~owner:"Verify.Engine"
    (Place_rules.rules @ Route_rules.rules @ Tech_rules.rules
     @ Style_rules.rules @ Lvs_rules.rules)

(* Each stage checker is wrapped in a telemetry span and feeds the
   per-rule fire counters, so both lint runs and flow-gate runs show up
   in traces and metric dumps. *)
let instrumented artifact diags =
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.incr ~label:artifact "verify/checks_total";
    List.iter
      (fun (d : Diag.t) ->
         Telemetry.Metrics.incr ~label:d.Diag.rule.Diag.id
           "verify/rule_fired_total")
      diags
  end;
  diags

let check_tech tech =
  Telemetry.Span.with_ ~name:"verify.tech" (fun () ->
      instrumented "tech" (Tech_rules.check tech))

let check_style ~bits style =
  Telemetry.Span.with_ ~name:"verify.style" (fun () ->
      instrumented "style" (Style_rules.check ~bits style))

let check_placement ?centroid_tol ?dispersion_bound tech placement =
  Telemetry.Span.with_ ~name:"verify.placement" (fun () ->
      instrumented "placement"
        (Place_rules.check ?centroid_tol ?dispersion_bound tech placement))

let check_layout layout =
  Telemetry.Span.with_ ~name:"verify.layout" (fun () ->
      instrumented "layout" (Route_rules.check layout))

let check_artifacts (layout : Ccroute.Layout.t) =
  let tech = layout.Ccroute.Layout.tech in
  check_tech tech
  @ check_placement tech layout.Ccroute.Layout.placement
  @ check_layout layout

let has_errors diags = Diag.errors diags <> []

let lint_placement ?parallel ?(tech = Tech.Process.finfet_12nm) placement =
  let pre = check_tech tech @ check_placement tech placement in
  if has_errors pre then pre
  else begin
    let p_of_cap = Option.value parallel ~default:(fun _ -> 1) in
    let layout = Ccroute.Layout.route tech ~p_of_cap placement in
    pre @ check_layout layout
  end

let lint ?parallel ?(tech = Tech.Process.finfet_12nm) ~bits style =
  let pre = check_tech tech @ check_style ~bits style in
  if has_errors pre then pre
  else begin
    let placement = Ccplace.Style.place ~bits style in
    let place_diags = check_placement tech placement in
    let pre = pre @ place_diags in
    if has_errors pre then pre
    else begin
      let p_of_cap = Option.value parallel ~default:(fun _ -> 1) in
      let layout = Ccroute.Layout.route tech ~p_of_cap placement in
      pre @ check_layout layout
    end
  end

let assert_clean = Diag.assert_clean
