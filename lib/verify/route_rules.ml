let route id doc =
  { Diag.id = "route/" ^ id; category = "routing"; severity = Diag.Error; doc }

let r_extent =
  route "extent" "The routed block must have strictly positive width and \
                  height."

let r_top_plate =
  route "top-plate"
    "A multi-cell array must carry a non-empty top-plate net of positive \
     length."

let r_parallel_positive =
  route "parallel-positive"
    "Every capacitor's parallel-wire count must be at least 1."

let rules =
  Ccroute.Check.rules @ [ r_extent; r_top_plate; r_parallel_positive ]

let check_extensions (layout : Ccroute.Layout.t) =
  let out = ref [] in
  let emit rule ?loc fmt =
    let loc = Option.map (fun l -> Diag.Element l) loc in
    Printf.ksprintf (fun d -> out := Diag.make ?loc rule d :: !out) fmt
  in
  if not (layout.Ccroute.Layout.width > 0. && layout.Ccroute.Layout.height > 0.)
  then
    emit r_extent "routed block is %g x %g um" layout.Ccroute.Layout.width
      layout.Ccroute.Layout.height;
  let cells =
    layout.Ccroute.Layout.placement.Ccgrid.Placement.rows
    * layout.Ccroute.Layout.placement.Ccgrid.Placement.cols
  in
  if cells >= 2 then begin
    if layout.Ccroute.Layout.top_wires = [] then
      emit r_top_plate "top-plate net has no wires"
    else if not (layout.Ccroute.Layout.top_length > 0.) then
      emit r_top_plate "top-plate wirelength is %g um"
        layout.Ccroute.Layout.top_length
  end;
  Array.iteri
    (fun k p ->
       if p < 1 then
         emit r_parallel_positive ~loc:(Printf.sprintf "C_%d" k)
           "parallel-wire count %d is below 1" p)
    layout.Ccroute.Layout.p_of_cap;
  List.rev !out

let check layout =
  Ccroute.Check.run layout @ check_extensions layout
