open Ccgrid

let route id doc =
  { Diag.id = "route/" ^ id; category = "routing"; severity = Diag.Error; doc }

let r_wire_in_outline =
  route "wire-in-outline"
    "Every wire (bottom and top plate) must lie inside the routed block's \
     outline."

let r_via_in_outline =
  route "via-in-outline" "Every logical via must lie inside the outline."

let r_trunk_in_channel =
  route "trunk-in-channel"
    "Every trunk must sit inside the x extent of the channel its track \
     belongs to."

let r_track_separation =
  route "track-separation"
    "Two trunks sharing a channel must be at least half the sum of their \
     bundle widths apart."

let r_net_routed = route "net-routed" "Every capacitor must have a trunk."

let r_net_coverage =
  route "net-coverage"
    "The connected groups of each capacitor's net must cover exactly its \
     placed cells."

let r_parallel_consistency =
  route "parallel-consistency"
    "Bundle widths recorded on wires and vias must match the declared \
     parallel-wire plan."

let r_reserved_direction =
  route "reserved-direction"
    "Wires must respect their layer's reserved direction (trunks vertical, \
     bridges and stubs horizontal)."

let rules =
  [ r_wire_in_outline; r_via_in_outline; r_trunk_in_channel;
    r_track_separation; r_net_routed; r_net_coverage; r_parallel_consistency;
    r_reserved_direction ]

let check_outline (layout : Layout.t) out =
  let eps = 1e-6 in
  let inside x y =
    x >= -.eps
    && x <= layout.Layout.width +. eps
    && y >= -.eps
    && y <= layout.Layout.height +. eps
  in
  List.iter
    (fun (w : Layout.wire) ->
       if not (inside w.Layout.w_ax w.Layout.w_ay && inside w.Layout.w_bx w.Layout.w_by)
       then
         Printf.ksprintf (out r_wire_in_outline)
           "net C_%d wire (%.2f,%.2f)-(%.2f,%.2f) escapes %gx%g"
           w.Layout.w_cap w.Layout.w_ax w.Layout.w_ay w.Layout.w_bx
           w.Layout.w_by layout.Layout.width layout.Layout.height)
    (layout.Layout.wires @ layout.Layout.top_wires);
  List.iter
    (fun (v : Layout.via) ->
       if not (inside v.Layout.v_x v.Layout.v_y) then
         Printf.ksprintf (out r_via_in_outline)
           "net C_%d via (%.2f,%.2f) escapes" v.Layout.v_cap
           v.Layout.v_x v.Layout.v_y)
    layout.Layout.vias

(* each trunk must sit inside its channel's x extent *)
let check_trunks_in_channels (layout : Layout.t) out =
  let eps = 1e-6 in
  let channel_bounds =
    (* recompute channel left edges the way Layout laid them out *)
    let cols = layout.Layout.placement.Placement.cols in
    let pitch_x = Tech.Process.cell_pitch_x layout.Layout.tech in
    let bounds = Array.make (cols + 1) (0., 0.) in
    let cursor = ref 0. in
    for ch = 0 to cols do
      bounds.(ch) <- (!cursor, !cursor +. layout.Layout.channel_width.(ch));
      cursor := !cursor +. layout.Layout.channel_width.(ch);
      if ch < cols then cursor := !cursor +. pitch_x
    done;
    bounds
  in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            let lo, hi = channel_bounds.(tk.Layout.tk_channel) in
            if tk.Layout.tk_x < lo -. eps || tk.Layout.tk_x > hi +. eps then
              Printf.ksprintf (out r_trunk_in_channel)
                "C_%d trunk x=%.3f outside channel %d [%.3f, %.3f]"
                tk.Layout.tk_cap tk.Layout.tk_x tk.Layout.tk_channel lo hi)
         net.Layout.cn_trunks)
    layout.Layout.nets

(* two trunks in one channel must not collide: centre distance at least
   half the sum of their bundle widths *)
let check_track_separation (layout : Layout.t) out =
  let trunks_by_channel = Hashtbl.create 16 in
  Array.iter
    (fun (net : Layout.capnet) ->
       List.iter
         (fun (tk : Layout.trunk) ->
            let prev =
              Option.value ~default:[]
                (Hashtbl.find_opt trunks_by_channel tk.Layout.tk_channel)
            in
            Hashtbl.replace trunks_by_channel tk.Layout.tk_channel (tk :: prev))
         net.Layout.cn_trunks)
    layout.Layout.nets;
  Hashtbl.iter
    (fun channel trunks ->
       let sorted =
         List.sort (fun a b -> Float.compare a.Layout.tk_x b.Layout.tk_x) trunks
       in
       let rec walk = function
         | a :: (b :: _ as rest) ->
           let width tk =
             Tech.Parallel.bundle_width layout.Layout.tech
               ~p:layout.Layout.p_of_cap.(tk.Layout.tk_cap)
           in
           let min_gap = (width a +. width b) /. 2. in
           if b.Layout.tk_x -. a.Layout.tk_x < min_gap -. 1e-9 then
             Printf.ksprintf (out r_track_separation)
               "channel %d: trunks of C_%d and C_%d %.3f um apart, need %.3f"
               channel a.Layout.tk_cap b.Layout.tk_cap
               (b.Layout.tk_x -. a.Layout.tk_x) min_gap;
           walk rest
         | [ _ ] | [] -> ()
       in
       walk sorted)
    trunks_by_channel

(* every capacitor must have a routed net whose groups cover its cells *)
let check_net_coverage (layout : Layout.t) out =
  let placement = layout.Layout.placement in
  Array.iter
    (fun (net : Layout.capnet) ->
       let cap = net.Layout.cn_cap in
       if net.Layout.cn_trunks = [] then
         Printf.ksprintf (out r_net_routed) "C_%d has no trunk" cap;
       let covered =
         List.fold_left
           (fun acc (g : Group.t) -> acc + Group.size g)
           0 net.Layout.cn_groups
       in
       if covered <> placement.Placement.counts.(cap) then
         Printf.ksprintf (out r_net_coverage)
           "C_%d groups cover %d of %d cells" cap covered
           placement.Placement.counts.(cap))
    layout.Layout.nets

(* bundle widths recorded on wires and vias must match the plan *)
let check_parallel_consistency (layout : Layout.t) out =
  List.iter
    (fun (w : Layout.wire) ->
       if w.Layout.w_cap >= 0
          && w.Layout.w_p <> layout.Layout.p_of_cap.(w.Layout.w_cap)
       then
         Printf.ksprintf (out r_parallel_consistency)
           "C_%d wire has p=%d, plan says %d" w.Layout.w_cap w.Layout.w_p
           layout.Layout.p_of_cap.(w.Layout.w_cap))
    layout.Layout.wires;
  List.iter
    (fun (v : Layout.via) ->
       if v.Layout.v_p <> layout.Layout.p_of_cap.(v.Layout.v_cap) then
         Printf.ksprintf (out r_parallel_consistency)
           "C_%d via has p=%d, plan says %d" v.Layout.v_cap
           v.Layout.v_p layout.Layout.p_of_cap.(v.Layout.v_cap))
    layout.Layout.vias

(* trunk wires must be vertical on a vertical layer; bridges horizontal *)
let check_wire_directions (layout : Layout.t) out =
  List.iter
    (fun (w : Layout.wire) ->
       let layer = Tech.Process.layer layout.Layout.tech w.Layout.w_layer in
       let vertical = Float.abs (w.Layout.w_ax -. w.Layout.w_bx) < 1e-9 in
       let horizontal = Float.abs (w.Layout.w_ay -. w.Layout.w_by) < 1e-9 in
       let zero_length = vertical && horizontal in
       let matches =
         zero_length
         ||
         match w.Layout.w_kind with
         | Layout.Trunk ->
           vertical
           || Geom.Axis.equal layer.Tech.Layer.direction Geom.Axis.Horizontal
         | Layout.Bridge | Layout.Stub -> horizontal
         (* branch = abutting fingers, top plate = via-free jog allowed
            by the 3-layer MOM stack (Sec. IV-B1) *)
         | Layout.Branch | Layout.Top -> vertical || horizontal
       in
       if not matches then
         Printf.ksprintf (out r_reserved_direction)
           "C_%d %s wire violates direction" w.Layout.w_cap
           (match w.Layout.w_kind with
            | Layout.Branch -> "branch"
            | Layout.Stub -> "stub"
            | Layout.Trunk -> "trunk"
            | Layout.Bridge -> "bridge"
            | Layout.Top -> "top"))
    layout.Layout.wires

let run layout =
  Telemetry.Span.with_ ~name:"route.check" (fun () ->
      let found = ref [] in
      let out rule detail = found := Diag.make rule detail :: !found in
      check_outline layout out;
      check_trunks_in_channels layout out;
      check_track_separation layout out;
      check_net_coverage layout out;
      check_parallel_consistency layout out;
      check_wire_directions layout out;
      if Telemetry.Metrics.enabled () then
        List.iter
          (fun (d : Diag.t) ->
             (* labelled by the bare check id, without the family prefix *)
             Telemetry.Metrics.incr
               ~label:(String.sub d.Diag.rule.Diag.id 6
                         (String.length d.Diag.rule.Diag.id - 6))
               "route/check_violations_total")
          !found;
      (* deterministic order, independent of hash-table and checker
         iteration order *)
      Diag.sort !found)

let assert_clean layout =
  match run layout with
  | [] -> ()
  | found ->
    let breakdown =
      String.concat ", "
        (List.map
           (fun (rule, n) -> Printf.sprintf "%s x%d" rule n)
           (Diag.tally found))
    in
    let first = List.filteri (fun i _ -> i < 5) found in
    invalid_arg
      (Format.asprintf "Check.assert_clean: %d violations (%s); first: %a"
         (List.length found) breakdown
         (Format.pp_print_list Diag.pp)
         first)
