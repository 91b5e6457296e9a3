(* Tests for the verification engine: the rule registry, the stage
   checkers and their negative paths (deliberately corrupted placements,
   layouts, tech files and style configs), the post-route Check module it
   absorbs, and SVG export. *)

let tech = Tech.Process.finfet_12nm

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec walk i = i + m <= n && (String.sub s i m = sub || walk (i + 1)) in
  walk 0

let layout_of ?p_of_cap style bits =
  let p = Ccplace.Style.place ~bits style in
  Ccroute.Layout.route tech ?p_of_cap p

let spiral6 = layout_of Ccplace.Style.Spiral 6

(* deep-copy a placement so tests can corrupt it in place *)
let clone (p : Ccgrid.Placement.t) =
  { p with
    Ccgrid.Placement.assign = Array.map Array.copy p.Ccgrid.Placement.assign;
    counts = Array.copy p.Ccgrid.Placement.counts }

let cell_of p k = List.hd (Ccgrid.Placement.cells_of p k)

let set (p : Ccgrid.Placement.t) (c : Ccgrid.Cell.t) id =
  p.Ccgrid.Placement.assign.(c.Ccgrid.Cell.row).(c.Ccgrid.Cell.col) <- id

let fired diags = Diag.rule_ids diags

let check_fired what expected diags =
  Alcotest.(check (list string)) what expected (fired diags)

(* --- registry --- *)

let test_registry_unique_sorted () =
  let ids = Diag.ids Verify.Engine.rules in
  Alcotest.(check (list string)) "sorted and unique"
    (List.sort_uniq String.compare ids)
    ids;
  Alcotest.(check bool) "non-trivial catalogue" true (List.length ids >= 20)

let test_registry_find () =
  Alcotest.(check bool) "finds place/centroid" true
    (Diag.find Verify.Engine.rules "place/centroid" <> None);
  Alcotest.(check bool) "unknown id" true
    (Diag.find Verify.Engine.rules "place/no-such-rule" = None);
  (* the post-route checker emits registry rules directly, so there is
     no fallback rule for ids the registry does not know *)
  Alcotest.(check bool) "no route/check fallback" true
    (Diag.find Verify.Engine.rules "route/check" = None)

let test_registry_docs () =
  List.iter
    (fun (r : Diag.rule) ->
       Alcotest.(check bool) (r.Diag.id ^ " documented") true
         (String.length r.Diag.doc > 10))
    Verify.Engine.rules

let test_registry_categories () =
  List.iter
    (fun (cat, prefix) ->
       let rules =
         List.filter
           (fun (r : Diag.rule) -> String.equal r.Diag.category cat)
           Verify.Engine.rules
       in
       Alcotest.(check bool)
         (prefix ^ " rules present") true
         (rules <> []);
       List.iter
         (fun (r : Diag.rule) ->
            Alcotest.(check bool)
              (r.Diag.id ^ " prefixed " ^ prefix)
              true
              (String.length r.Diag.id > String.length prefix
               && String.sub r.Diag.id 0 (String.length prefix) = prefix))
         rules)
    [ ("placement", "place/"); ("routing", "route/"); ("tech", "tech/");
      ("style", "style/"); ("lvs", "lvs/") ]

(* --- clean paths --- *)

let test_lint_all_styles_clean () =
  for bits = 4 to 10 do
    List.iter
      (fun style ->
         let parallel = Ccdac.Flow.default_parallel ~bits style in
         match Verify.Engine.lint ~parallel ~tech ~bits style with
         | [] -> ()
         | diags ->
           Alcotest.failf "%s %d-bit: %s" (Ccplace.Style.name style) bits
             (Diag.text diags))
      (Ccplace.Style.Spiral :: Ccplace.Style.Chessboard :: Ccplace.Style.Rowwise
       :: Ccplace.Style.block_family ~bits)
  done

let test_builtin_techs_clean () =
  Alcotest.(check (list string)) "finfet" []
    (fired (Verify.Engine.check_tech Tech.Process.finfet_12nm));
  Alcotest.(check (list string)) "bulk" []
    (fired (Verify.Engine.check_tech Tech.Process.bulk_legacy))

(* --- corrupted placements --- *)

let spiral5 = Ccplace.Style.place ~bits:5 Ccplace.Style.Spiral
let spiral6p = Ccplace.Style.place ~bits:6 Ccplace.Style.Spiral

let test_bad_cell_count () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  check_fired "reassigned cell"
    [ "place/cell-count"; "place/centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_counts_array () =
  let p = clone spiral6p in
  p.Ccgrid.Placement.counts.(2) <- p.Ccgrid.Placement.counts.(2) + 1;
  check_fired "corrupted counts"
    [ "place/binary-weights"; "place/cell-count" ]
    (Verify.Engine.check_placement tech p)

let test_bad_grid_coverage () =
  let p = clone spiral5 in
  (match Ccgrid.Placement.dummy_cells p with
   | [] -> Alcotest.fail "expected dummies at 5 bits"
   | d :: _ -> set p d 99);
  check_fired "hole in the grid" [ "place/grid-coverage" ]
    (Verify.Engine.check_placement tech p)

let test_bad_centroid () =
  let p = clone spiral5 in
  let c = cell_of p 2 in
  (match Ccgrid.Placement.dummy_cells p with
   | [] -> Alcotest.fail "expected dummies at 5 bits"
   | d :: _ ->
     set p d 2;
     set p c Ccgrid.Placement.dummy);
  check_fired "off-centre capacitor"
    [ "place/centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_lsb_pair () =
  let p = clone spiral6p in
  let a = cell_of p 0 and b = cell_of p 2 in
  set p a 2;
  set p b 0;
  check_fired "split pair broken"
    [ "place/centroid"; "place/lsb-pair-centroid"; "place/mirror-symmetry" ]
    (Verify.Engine.check_placement tech p)

let test_bad_structure () =
  let p = { (clone spiral6p) with Ccgrid.Placement.counts = [| 1; 1 |] } in
  check_fired "broken record" [ "place/well-formed" ]
    (Verify.Engine.check_placement tech p)

let test_bad_multiplier () =
  let p = { (clone spiral6p) with Ccgrid.Placement.unit_multiplier = 3 } in
  check_fired "wrong multiplier" [ "place/binary-weights" ]
    (Verify.Engine.check_placement tech p)

let test_dispersion_bound () =
  let diags =
    Verify.Engine.check_placement ~dispersion_bound:0.5 tech spiral6p
  in
  check_fired "tight bound" [ "place/dispersion" ] diags;
  Alcotest.(check bool) "warning only, passes gate" true
    (Result.is_ok (Diag.gate diags));
  Alcotest.(check bool) "werror promotes" true
    (Result.is_error (Diag.gate ~werror:true diags))

(* --- corrupted tech --- *)

let test_bad_tech_resistance () =
  check_fired "zero via resistance" [ "tech/positive-resistance" ]
    (Verify.Engine.check_tech { tech with Tech.Process.via_resistance = 0. })

let test_bad_tech_capacitance () =
  check_fired "negative unit cap" [ "tech/positive-capacitance" ]
    (Verify.Engine.check_tech { tech with Tech.Process.unit_cap = -1. })

let test_bad_tech_stack () =
  check_fired "reversed stack" [ "tech/layer-stack" ]
    (Verify.Engine.check_tech
       { tech with Tech.Process.stack = List.rev tech.Tech.Process.stack })

let test_bad_tech_geometry () =
  check_fired "zero wire pitch" [ "tech/geometry" ]
    (Verify.Engine.check_tech { tech with Tech.Process.wire_pitch = 0. })

let test_bad_tech_statistics () =
  check_fired "rho_u out of range" [ "tech/statistics" ]
    (Verify.Engine.check_tech { tech with Tech.Process.rho_u = 1.5 })

(* --- bad style configs --- *)

let test_bad_style_core_bits () =
  check_fired "core too small" [ "style/block-core-bits" ]
    (Verify.Engine.check_style ~bits:6
       (Ccplace.Style.Block_chess { core_bits = 0; granularity = 2 }))

let test_bad_style_granularity () =
  check_fired "zero granularity" [ "style/block-granularity" ]
    (Verify.Engine.check_style ~bits:6
       (Ccplace.Style.Block_chess { core_bits = 4; granularity = 0 }))

let test_bad_style_bits () =
  check_fired "bits out of range" [ "style/bits-range" ]
    (Verify.Engine.check_style ~bits:20 Ccplace.Style.Spiral)

let test_unswept_granularity () =
  let diags =
    Verify.Engine.check_style ~bits:6
      (Ccplace.Style.Block_chess { core_bits = 4; granularity = 3 })
  in
  check_fired "unswept granularity" [ "style/block-granularity-unswept" ] diags;
  Alcotest.(check bool) "warning only" true
    (Result.is_ok (Diag.gate diags))

(* --- corrupted layouts (through the registry) --- *)

let test_bad_layout_parallel () =
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let corrupted =
    { spiral6 with Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias }
  in
  check_fired "inconsistent via bundle" [ "route/parallel-consistency" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_outline () =
  let bad_wire =
    { Ccroute.Layout.w_cap = 3; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = -5.; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted =
    { spiral6 with
      Ccroute.Layout.wires = bad_wire :: spiral6.Ccroute.Layout.wires }
  in
  check_fired "escaping wire" [ "route/wire-in-outline" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_parallel_plan () =
  let p_of_cap = Array.copy spiral6.Ccroute.Layout.p_of_cap in
  p_of_cap.(6) <- 0;
  let corrupted = { spiral6 with Ccroute.Layout.p_of_cap } in
  check_fired "zero parallel count"
    [ "route/parallel-consistency"; "route/parallel-positive" ]
    (Verify.Engine.check_layout corrupted)

let test_bad_layout_top_plate () =
  let corrupted = { spiral6 with Ccroute.Layout.top_wires = [] } in
  check_fired "missing top plate" [ "route/top-plate" ]
    (Verify.Engine.check_layout corrupted)

(* --- the flow gate --- *)

let test_flow_rejects_corrupted () =
  let p = clone spiral6p in
  let c = cell_of p 2 in
  (* move one C_2 cell to its row neighbour's dummy-free grid? no — swap
     with a dummy is impossible at 6 bits (no dummies); swap two caps *)
  let d = cell_of p 3 in
  set p c 3;
  set p d 2;
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Ccdac.Flow.run_placement p);
       false
     with Verify.Engine.Rejected _ -> true);
  (* opting out still analyses it *)
  let r = Ccdac.Flow.run_placement ~verify:false p in
  Alcotest.(check bool) "opt-out analyses" true (r.Ccdac.Flow.f3db_mhz > 0.)

let test_flow_rejected_payload () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  match Ccdac.Flow.run_placement p with
  | _ -> Alcotest.fail "expected rejection"
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Alcotest.(check bool) "names artifact" true
      (String.length what > 0);
    Alcotest.(check bool) "carries errors" true
      (Diag.errors diagnostics <> [])

(* --- engine helpers --- *)

let test_gate_and_worst () =
  Alcotest.(check bool) "clean gate" true (Result.is_ok (Diag.gate []));
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  let diags = Verify.Engine.check_placement tech p in
  (* a failing gate returns the run sorted most severe first *)
  Alcotest.(check bool) "worst is error" true
    (match Diag.gate diags with
     | Error (d :: _) -> Diag.severity d = Diag.Error
     | Error [] | Ok () -> false)

let test_report_text_and_json () =
  let p = clone spiral6p in
  set p (cell_of p 3) 2;
  let diags = Verify.Engine.check_placement tech p in
  let text = Diag.text diags in
  let json =
    Telemetry.Json.to_string
      (Diag.to_json
         ~head:[ ("label", Telemetry.Json.Str "corrupted \"spiral\"") ]
         diags)
  in
  Alcotest.(check bool) "text has rule id" true
    (contains text "place/cell-count");
  Alcotest.(check bool) "json has version" true
    (contains json "\"version\": 1");
  Alcotest.(check bool) "json escapes label" true
    (contains json "corrupted \\\"spiral\\\"");
  Alcotest.(check bool) "json lists rule" true
    (contains json "\"rule\": \"place/cell-count\"")

(* --- check (absorbed module) --- *)

let test_all_styles_clean () =
  for bits = 2 to 9 do
    List.iter
      (fun style ->
         let layout =
           layout_of ~p_of_cap:(Ccdac.Flow.default_parallel ~bits style) style
             bits
         in
         match Ccroute.Check.run layout with
         | [] -> ()
         | d :: _ ->
           Alcotest.failf "%s %d-bit: %s" (Ccplace.Style.name style) bits
             (Format.asprintf "%a" Diag.pp d))
      (Ccplace.Style.Spiral :: Ccplace.Style.Chessboard :: Ccplace.Style.Rowwise
       :: Ccplace.Style.block_family ~bits)
  done

let test_assert_clean_passes () = Ccroute.Check.assert_clean spiral6

let test_detects_corrupted_parallel () =
  (* forge a layout with an inconsistent via bundle *)
  let bad_via =
    { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 }
  in
  let corrupted =
    { spiral6 with Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias }
  in
  Alcotest.(check bool) "parallel-consistency caught" true
    (List.mem "route/parallel-consistency"
       (fired (Ccroute.Check.run corrupted)))

let test_detects_escaping_wire () =
  let bad_wire =
    { Ccroute.Layout.w_cap = 3; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = -5.; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted =
    { spiral6 with
      Ccroute.Layout.wires = bad_wire :: spiral6.Ccroute.Layout.wires }
  in
  Alcotest.(check bool) "wire-in-outline caught" true
    (List.mem "route/wire-in-outline" (fired (Ccroute.Check.run corrupted)))

let test_run_sorted_deterministic () =
  (* two distinct rules corrupted at once: output must come back sorted *)
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let bad_wire =
    { Ccroute.Layout.w_cap = 3; w_kind = Ccroute.Layout.Stub;
      w_layer = Tech.Layer.M1; w_ax = -5.; w_ay = 1.; w_bx = 1.; w_by = 1.;
      w_p = 1 }
  in
  let corrupted =
    { spiral6 with
      Ccroute.Layout.vias = bad_via :: spiral6.Ccroute.Layout.vias;
      wires = bad_wire :: spiral6.Ccroute.Layout.wires }
  in
  let violations = Ccroute.Check.run corrupted in
  let rules = List.map (fun (d : Diag.t) -> d.Diag.rule.Diag.id) violations in
  Alcotest.(check (list string)) "rule-id sorted"
    (List.sort String.compare rules)
    rules;
  let tally = Diag.tally violations in
  Alcotest.(check bool) "tally covers every rule" true
    (List.length tally = List.length (List.sort_uniq String.compare rules))

let test_assert_clean_reports_totals () =
  let bad_via = { Ccroute.Layout.v_cap = 6; v_x = 1.; v_y = 1.; v_p = 3 } in
  let corrupted =
    { spiral6 with
      Ccroute.Layout.vias =
        bad_via :: bad_via :: spiral6.Ccroute.Layout.vias }
  in
  match Ccroute.Check.assert_clean corrupted with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "total count" true
      (contains msg "2 violations");
    Alcotest.(check bool) "per-rule breakdown" true
      (contains msg "parallel-consistency x2")

(* --- svg --- *)

let test_svg_well_formed () =
  let svg = Ccroute.Svg.render spiral6 in
  Alcotest.(check bool) "opens" true (contains svg "<svg xmlns");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  Alcotest.(check bool) "has cells" true (contains svg "<rect");
  Alcotest.(check bool) "has wires" true (contains svg "<line");
  Alcotest.(check bool) "has vias" true (contains svg "<circle");
  Alcotest.(check bool) "caption" true (contains svg "spiral 6-bit")

let test_svg_cell_count () =
  let svg = Ccroute.Svg.render spiral6 in
  let count sub =
    let rec walk i acc =
      if i + String.length sub > String.length svg then acc
      else if String.sub svg i (String.length sub) = sub then
        walk (i + 1) (acc + 1)
      else walk (i + 1) acc
    in
    walk 0 0
  in
  (* one rect per cell plus the background *)
  Alcotest.(check int) "rects" (64 + 1) (count "<rect")

let test_svg_hide_top () =
  let with_top = Ccroute.Svg.render ~show_top:true spiral6 in
  let without = Ccroute.Svg.render ~show_top:false spiral6 in
  Alcotest.(check bool) "fewer lines without top plate" true
    (String.length without < String.length with_top)

let test_svg_write_roundtrip () =
  let path = Filename.temp_file "ccdac" ".svg" in
  Ccroute.Svg.write spiral6 ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 1000)

let () =
  Alcotest.run "verify"
    [ ( "registry",
        [ Alcotest.test_case "unique sorted ids" `Quick test_registry_unique_sorted;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "docs" `Quick test_registry_docs;
          Alcotest.test_case "categories" `Quick test_registry_categories ] );
      ( "clean",
        [ Alcotest.test_case "lint all styles" `Slow test_lint_all_styles_clean;
          Alcotest.test_case "builtin techs" `Quick test_builtin_techs_clean ] );
      ( "bad placement",
        [ Alcotest.test_case "cell count" `Quick test_bad_cell_count;
          Alcotest.test_case "counts array" `Quick test_bad_counts_array;
          Alcotest.test_case "grid coverage" `Quick test_bad_grid_coverage;
          Alcotest.test_case "centroid" `Quick test_bad_centroid;
          Alcotest.test_case "lsb pair" `Quick test_bad_lsb_pair;
          Alcotest.test_case "structure" `Quick test_bad_structure;
          Alcotest.test_case "multiplier" `Quick test_bad_multiplier;
          Alcotest.test_case "dispersion bound" `Quick test_dispersion_bound ] );
      ( "bad tech",
        [ Alcotest.test_case "resistance" `Quick test_bad_tech_resistance;
          Alcotest.test_case "capacitance" `Quick test_bad_tech_capacitance;
          Alcotest.test_case "stack" `Quick test_bad_tech_stack;
          Alcotest.test_case "geometry" `Quick test_bad_tech_geometry;
          Alcotest.test_case "statistics" `Quick test_bad_tech_statistics ] );
      ( "bad style",
        [ Alcotest.test_case "core bits" `Quick test_bad_style_core_bits;
          Alcotest.test_case "granularity" `Quick test_bad_style_granularity;
          Alcotest.test_case "bits range" `Quick test_bad_style_bits;
          Alcotest.test_case "unswept" `Quick test_unswept_granularity ] );
      ( "bad layout",
        [ Alcotest.test_case "parallel via" `Quick test_bad_layout_parallel;
          Alcotest.test_case "outline" `Quick test_bad_layout_outline;
          Alcotest.test_case "parallel plan" `Quick test_bad_layout_parallel_plan;
          Alcotest.test_case "top plate" `Quick test_bad_layout_top_plate ] );
      ( "flow gate",
        [ Alcotest.test_case "rejects corrupted" `Quick test_flow_rejects_corrupted;
          Alcotest.test_case "payload" `Quick test_flow_rejected_payload ] );
      ( "engine",
        [ Alcotest.test_case "gate and worst" `Quick test_gate_and_worst;
          Alcotest.test_case "reports" `Quick test_report_text_and_json ] );
      ( "check",
        [ Alcotest.test_case "all styles clean" `Slow test_all_styles_clean;
          Alcotest.test_case "assert_clean" `Quick test_assert_clean_passes;
          Alcotest.test_case "bad parallel" `Quick test_detects_corrupted_parallel;
          Alcotest.test_case "escaping wire" `Quick test_detects_escaping_wire;
          Alcotest.test_case "sorted run" `Quick test_run_sorted_deterministic;
          Alcotest.test_case "assert totals" `Quick test_assert_clean_reports_totals ] );
      ( "svg",
        [ Alcotest.test_case "well-formed" `Quick test_svg_well_formed;
          Alcotest.test_case "cell count" `Quick test_svg_cell_count;
          Alcotest.test_case "hide top" `Quick test_svg_hide_top;
          Alcotest.test_case "write" `Quick test_svg_write_roundtrip ] ) ]
