open Ccgrid
module D = Diag
module LR = Verify.Lvs_rules

type stats = {
  shapes : int;
  contacts : int;
  components : int;
}

type result = {
  diagnostics : D.t list;
  stats : stats;
}

let cap_loc k = Printf.sprintf "C_%d" k

let add_once arr i v = if not (List.mem v arr.(i)) then arr.(i) <- v :: arr.(i)

let cell_name (c : Cell.t) = Printf.sprintf "(%d,%d)" c.Cell.row c.Cell.col

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let classify (ex : Extracted.t) (layout : Ccroute.Layout.t) =
  let nc = ex.Extracted.n_components in
  let ncaps = Array.length layout.Ccroute.Layout.nets in
  (* per-component tallies *)
  let comp_labels = Array.make nc [] in
  let comp_shapes = Array.make nc 0 in
  let comp_pads = Array.make nc 0 in
  let comp_top_pads = Array.make nc 0 in
  let comp_drivers = Array.make nc [] in
  (* per-capacitor views *)
  let cap_pads = Array.make ncaps [] in      (* (cell, component) *)
  let cap_driver = Array.make ncaps None in
  let cap_anchored = Array.make ncaps [] in  (* components holding a pad or
                                                the driver of the net *)
  Array.iter
    (fun (s : Shape.t) ->
       let c = ex.Extracted.comp_of.(s.Shape.id) in
       comp_shapes.(c) <- comp_shapes.(c) + 1;
       add_once comp_labels c s.Shape.label;
       (match s.Shape.kind, s.Shape.label with
        | Shape.Pad cell, Shape.Cap k ->
          comp_pads.(c) <- comp_pads.(c) + 1;
          cap_pads.(k) <- (cell, c) :: cap_pads.(k);
          add_once cap_anchored k c
        | Shape.Top_pad _, _ -> comp_top_pads.(c) <- comp_top_pads.(c) + 1
        | _ -> ());
       match s.Shape.label with
       | Shape.Cap k when s.Shape.driver ->
         if cap_driver.(k) = None then cap_driver.(k) <- Some c;
         add_once comp_drivers c k;
         add_once cap_anchored k c
       | Shape.Cap _ | Shape.Top -> ())
    ex.Extracted.shapes;
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* shorts: one extracted component claiming >= 2 nets *)
  let shorted = Array.make ncaps false in
  for c = 0 to nc - 1 do
    let labels = List.sort Shape.compare_label comp_labels.(c) in
    match labels with
    | first :: _ :: _ ->
      List.iter
        (function Shape.Cap k -> shorted.(k) <- true | Shape.Top -> ())
        labels;
      emit
        (D.makef ~loc:(D.Element (Shape.label_name first)) LR.r_short
           "extracted component of %d shapes joins nets %s" comp_shapes.(c)
           (String.concat ", " (List.map Shape.label_name labels)))
    | [ _ ] | [] -> ()
  done;
  (* opens: a net missing its driver terminal, or anchored shapes spread
     over >= 2 components.  Unanchored stray metal is the dangling
     warning below, not an open — it cannot carry the net's charge. *)
  let fractured = Array.make ncaps false in
  for k = 0 to ncaps - 1 do
    (match cap_driver.(k) with
     | None ->
       fractured.(k) <- true;
       emit
         (D.makef ~loc:(D.Element (cap_loc k)) LR.r_open
            "no driver terminal: no via of the net reaches the driver row \
             (y = 0)")
     | Some _ -> ());
    let anchored = List.length cap_anchored.(k) in
    if anchored >= 2 then begin
      fractured.(k) <- true;
      emit
        (D.makef ~loc:(D.Element (cap_loc k)) LR.r_open
           "net fractured into %d disconnected pieces (%d cell plates)"
           anchored
           (List.length cap_pads.(k)))
    end
  done;
  (* floating cells: pads not in their net's driver component *)
  let floating = Array.make ncaps false in
  for k = 0 to ncaps - 1 do
    match cap_driver.(k) with
    | None -> ()   (* the no-driver open already condemns every cell *)
    | Some dc ->
      let stray = List.filter (fun (_, c) -> c <> dc) cap_pads.(k) in
      if stray <> [] then begin
        floating.(k) <- true;
        let cells = List.sort Cell.compare (List.map fst stray) in
        emit
          (D.makef ~loc:(D.Element (cap_loc k)) LR.r_floating_cell
             "%d of %d unit cells unreachable from the driver: %s%s"
             (List.length stray)
             (List.length cap_pads.(k))
             (String.concat ", " (List.map cell_name (take 4 cells)))
             (if List.length stray > 4 then ", ..." else ""))
      end
  done;
  (* dangling: components anchored to nothing — dead metal *)
  for c = 0 to nc - 1 do
    if comp_pads.(c) = 0 && comp_top_pads.(c) = 0 && comp_drivers.(c) = []
    then begin
      let loc =
        match comp_labels.(c) with
        | [ l ] -> Some (D.Element (Shape.label_name l))
        | _ -> None
      in
      emit
        (D.makef ?loc LR.r_dangling
           "dead metal: component of %d shapes touches no cell plate and no \
            driver terminal"
           comp_shapes.(c))
    end
  done;
  (* top plate: every top pad must share one component *)
  let top_comps = ref 0 in
  for c = 0 to nc - 1 do
    if comp_top_pads.(c) > 0 then incr top_comps
  done;
  if !top_comps >= 2 then
    emit
      (D.makef ~loc:(D.Element "TOP") LR.r_top_open
         "top plate fractured into %d components" !top_comps);
  (* Netbuild cross-check, only for geometrically clean nets: the cells
     the drawn geometry connects to the driver must be exactly the cells
     the RC tree (and hence Elmore/f3dB) models *)
  for k = 0 to ncaps - 1 do
    if
      (not (shorted.(k) || fractured.(k) || floating.(k)))
      && cap_driver.(k) <> None
    then begin
      let extracted_cells =
        List.sort Cell.compare (List.map fst cap_pads.(k))
      in
      match Extract.Netbuild.build layout ~cap:k with
      | exception e ->
        emit
          (D.makef ~loc:(D.Element (cap_loc k)) LR.r_netbuild_mismatch
             "Netbuild failed on a geometrically clean net: %s"
             (Printexc.to_string e))
      | nb ->
        let tree_cells =
          List.sort Cell.compare
            (List.map fst nb.Extract.Netbuild.cell_nodes)
        in
        if not (List.equal Cell.equal extracted_cells tree_cells) then begin
          let diff a b =
            List.filter (fun c -> not (List.exists (Cell.equal c) b)) a
          in
          let drawn_only = diff extracted_cells tree_cells in
          let tree_only = diff tree_cells extracted_cells in
          emit
            (D.makef ~loc:(D.Element (cap_loc k)) LR.r_netbuild_mismatch
               "extracted driver component reaches %d cells but the RC tree \
                models %d (%d drawn-only, %d tree-only%s%s)"
               (List.length extracted_cells)
               (List.length tree_cells)
               (List.length drawn_only)
               (List.length tree_only)
               (match drawn_only with
                | c :: _ -> "; drawn-only " ^ cell_name c
                | [] -> "")
               (match tree_only with
                | c :: _ -> "; tree-only " ^ cell_name c
                | [] -> ""))
        end
    end
  done;
  D.sort !diags

let run layout =
  let shapes =
    Telemetry.Span.with_ ~name:"lvs.flatten" (fun () -> Shape.of_layout layout)
  in
  let ex =
    Telemetry.Span.with_ ~name:"lvs.extract" (fun () -> Extracted.extract shapes)
  in
  let diagnostics =
    Telemetry.Span.with_ ~name:"lvs.compare" (fun () -> classify ex layout)
  in
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.set "lvs/shapes" (float_of_int (Array.length shapes));
    Telemetry.Metrics.set "lvs/contacts"
      (float_of_int ex.Extracted.n_contacts);
    Telemetry.Metrics.set "lvs/components"
      (float_of_int ex.Extracted.n_components);
    List.iter
      (fun (d : D.t) ->
         Telemetry.Metrics.incr ~label:d.D.rule.D.id
           "lvs/defects_total")
      diagnostics
  end;
  { diagnostics;
    stats =
      { shapes = Array.length shapes;
        contacts = ex.Extracted.n_contacts;
        components = ex.Extracted.n_components } }

let check layout = (run layout).diagnostics

let to_json ~label r =
  let num n = Telemetry.Json.Num (float_of_int n) in
  Telemetry.Json.Obj
    [ ("label", Telemetry.Json.Str label);
      ( "stats",
        Telemetry.Json.Obj
          [ ("shapes", num r.stats.shapes);
            ("contacts", num r.stats.contacts);
            ("components", num r.stats.components) ] );
      ("report", D.to_json r.diagnostics) ]
