(* LVS engine tests: sweepline geometry, clean certification of every
   placement style, the mutation harness (injected faults must fire the
   exact expected lvs/* rule ids), the Netbuild cross-check, and the
   triage paths for unrouted capacitors. *)

module L = Ccroute.Layout

let tech = Tech.Process.finfet_12nm

let layout_of ?p_of_cap style bits =
  let p = Ccplace.Style.place ~bits style in
  Ccroute.Layout.route tech ?p_of_cap p

let spiral6 = layout_of Ccplace.Style.Spiral 6

let fired diags = Diag.rule_ids diags

let check_fired what expected diags =
  Alcotest.(check (list string)) what expected (fired diags)

let sweep_styles bits =
  Ccplace.Style.Spiral :: Ccplace.Style.Chessboard
  :: Ccplace.Style.Rowwise
  :: [ Ccplace.Style.block_default ~bits ]

let near a b = Float.abs (a -. b) < 1e-9

(* --- Geom.Sweepline --- *)

let seg = Geom.Sweepline.segment

let sorted_pairs ps =
  List.sort compare (List.map (fun (a, b) -> (min a b, max a b)) ps)

let test_sweepline_basic () =
  (* crossing, T-junction, endpoint touch, collinear overlap, disjoint *)
  let shapes =
    [ seg ~id:0 ~ax:0. ~ay:1. ~bx:4. ~by:1.;     (* H *)
      seg ~id:1 ~ax:2. ~ay:0. ~bx:2. ~by:3.;     (* V crossing 0 *)
      seg ~id:2 ~ax:4. ~ay:1. ~bx:4. ~by:5.;     (* V touching 0's endpoint *)
      seg ~id:3 ~ax:3. ~ay:1. ~bx:6. ~by:1.;     (* H collinear-overlapping 0 *)
      seg ~id:4 ~ax:0. ~ay:4. ~bx:1. ~by:4. ]    (* disjoint H *)
  in
  Alcotest.(check (list (pair int int)))
    "contact pairs"
    [ (0, 1); (0, 2); (0, 3); (2, 3) ]
    (sorted_pairs (Geom.Sweepline.contacts shapes))

let test_sweepline_points () =
  let shapes =
    [ seg ~id:0 ~ax:0. ~ay:0. ~bx:5. ~by:0.;     (* H *)
      seg ~id:1 ~ax:3. ~ay:0. ~bx:3. ~by:0.;     (* point on 0 *)
      seg ~id:2 ~ax:3. ~ay:1. ~bx:3. ~by:1.;     (* point off 0 *)
      seg ~id:3 ~ax:3. ~ay:(-2.) ~bx:3. ~by:1. ] (* V through 0, hits 2 *)
  in
  Alcotest.(check (list (pair int int)))
    "point contacts"
    [ (0, 1); (0, 3); (1, 3); (2, 3) ]
    (sorted_pairs (Geom.Sweepline.contacts shapes))

let test_sweepline_rejects_rect () =
  Alcotest.check_raises "extended in both axes"
    (Invalid_argument
       "Sweepline.contacts: shape 7 is not axis-aligned [0.0000, 1.0000] x \
        [0.0000, 1.0000]")
    (fun () ->
       ignore (Geom.Sweepline.contacts [ seg ~id:7 ~ax:0. ~ay:0. ~bx:1. ~by:1. ]))

let test_sweepline_matches_all_pairs () =
  (* the sweep must agree with the quadratic oracle on a messy random mix *)
  let st = Random.State.make [| 42 |] in
  let shapes =
    List.init 150 (fun id ->
        let f hi = float_of_int (Random.State.int st hi) in
        let x = f 20 and y = f 20 in
        match Random.State.int st 3 with
        | 0 -> seg ~id ~ax:x ~ay:y ~bx:(x +. f 8) ~by:y
        | 1 -> seg ~id ~ax:x ~ay:y ~bx:x ~by:(y +. f 8)
        | _ -> seg ~id ~ax:x ~ay:y ~bx:x ~by:y)
  in
  let eps = 1e-6 in
  let touches (a : Geom.Sweepline.seg) (b : Geom.Sweepline.seg) =
    Geom.Interval.overlaps ~eps a.Geom.Sweepline.sx b.Geom.Sweepline.sx
    && Geom.Interval.overlaps ~eps a.Geom.Sweepline.sy b.Geom.Sweepline.sy
  in
  let oracle = ref [] in
  List.iteri
    (fun i a ->
       List.iteri
         (fun j b -> if i < j && touches a b then oracle := (i, j) :: !oracle)
         shapes)
    shapes;
  Alcotest.(check (list (pair int int)))
    "sweep = all-pairs oracle"
    (List.sort compare !oracle)
    (sorted_pairs (Geom.Sweepline.contacts ~eps shapes))

(* --- clean layouts certify clean --- *)

let assert_clean what l =
  match Lvs.Check.check l with
  | [] -> ()
  | diags ->
    Alcotest.failf "%s not LVS-clean:\n%s" what (Diag.text diags)

let test_clean_sweep () =
  (* implicitly also the Netbuild cross-check agreement criterion: the
     comparison pass runs it for every capacitor of every clean layout *)
  List.iter
    (fun bits ->
       List.iter
         (fun style ->
            assert_clean
              (Printf.sprintf "%s %d-bit" (Ccplace.Style.name style) bits)
              (layout_of style bits))
         (sweep_styles bits))
    [ 4; 6; 8; 10 ]

let test_clean_parallel_wires () =
  let bits = 8 in
  assert_clean "spiral 8-bit p=3"
    (layout_of
       ~p_of_cap:(Ccroute.Layout.msb_parallel ~bits ~p:3)
       Ccplace.Style.Spiral bits)

let test_odd_chessboard () =
  (* the cell-doubling odd-N chessboard of [7] through the full pass *)
  List.iter
    (fun bits ->
       let p = Ccplace.Style.place ~bits Ccplace.Style.Chessboard in
       Alcotest.(check int)
         (Printf.sprintf "%d-bit unit multiplier" bits)
         2 p.Ccgrid.Placement.unit_multiplier;
       assert_clean
         (Printf.sprintf "chessboard %d-bit" bits)
         (Ccroute.Layout.route tech p))
    [ 5; 7 ]

let test_stub_planarity_repair () =
  (* Regression for a router defect this engine caught: with tracks
     assigned from each connection's first attach side alone, block
     chessboards could put a left-strapping net on a track right of a
     net strapping from the other side at the same row — overlapping M1
     stubs, a real short (e.g. block-chess(core=5,g=1) 7-bit shorted
     C_3/C_4).  Plan.make now orders tracks topologically and
     re-attaches groups to break precedence cycles; the once-shorting
     configurations must certify clean. *)
  List.iter
    (fun (bits, core_bits, granularity) ->
       let style = Ccplace.Style.Block_chess { core_bits; granularity } in
       assert_clean
         (Printf.sprintf "block-chess(core=%d,g=%d) %d-bit" core_bits
            granularity bits)
         (layout_of style bits))
    [ (7, 5, 1); (7, 5, 2); (7, 5, 4); (8, 6, 4); (9, 7, 2) ]

let test_stats_sane () =
  let r = Lvs.Check.run spiral6 in
  Alcotest.(check (list string)) "clean" [] (fired r.Lvs.Check.diagnostics);
  let s = r.Lvs.Check.stats in
  Alcotest.(check bool) "shapes counted" true (s.Lvs.Check.shapes > 100);
  Alcotest.(check bool) "contacts counted" true
    (s.Lvs.Check.contacts > s.Lvs.Check.shapes / 2);
  (* clean layout: one component per capacitor net plus the top plate *)
  Alcotest.(check int) "components" 8 s.Lvs.Check.components

(* --- mutation harness --- *)

(* Every mutation starts from a certified-clean layout and must fire
   exactly the expected lvs/* rule ids — no more, no fewer. *)

let mutate_wires f l = { l with L.wires = f l.L.wires }

(* an attach point whose group straps to its trunk at exactly one cell,
   so removing that via provably detaches the group *)
let single_attach_of l k =
  let net = L.net l k in
  let all =
    List.concat_map (fun (tk : L.trunk) -> tk.L.tk_attaches) net.L.cn_trunks
  in
  List.find_opt
    (fun (a : L.attach_point) ->
       List.length
         (List.filter
            (fun (b : L.attach_point) -> b.L.ap_group = a.L.ap_group)
            all)
       = 1)
    all

let test_mut_drop_attach_via () =
  let l = spiral6 in
  let rec pick k =
    if k > l.L.placement.Ccgrid.Placement.bits then
      Alcotest.fail "no single-attach group found"
    else
      match single_attach_of l k with
      | Some a -> (k, a)
      | None -> pick (k + 1)
  in
  let k, a = pick 0 in
  let vias =
    List.filter
      (fun (v : L.via) ->
         not
           (v.L.v_cap = k && near v.L.v_x a.L.ap_x && near v.L.v_y a.L.ap_y))
      l.L.vias
  in
  Alcotest.(check int) "one via dropped"
    (List.length l.L.vias - 1)
    (List.length vias);
  check_fired "drop attach via"
    [ "lvs/floating-cell"; "lvs/open" ]
    (Lvs.Check.check { l with L.vias })

let test_mut_drop_bridge () =
  let l = spiral6 in
  let k =
    match
      Array.find_opt (fun (n : L.capnet) -> n.L.cn_bridge_y <> None) l.L.nets
    with
    | Some n -> n.L.cn_cap
    | None -> Alcotest.fail "no bridged net in spiral6"
  in
  let mutated =
    mutate_wires
      (List.filter
         (fun (w : L.wire) -> not (w.L.w_cap = k && w.L.w_kind = L.Bridge)))
      l
  in
  check_fired "delete bridge segment"
    [ "lvs/floating-cell"; "lvs/open" ]
    (Lvs.Check.check mutated)

let primary_x l k =
  match
    List.find_opt (fun (tk : L.trunk) -> tk.L.tk_primary) (L.net l k).L.cn_trunks
  with
  | Some tk -> tk.L.tk_x
  | None -> Alcotest.failf "C_%d has no primary trunk" k

let test_mut_nudge_trunk () =
  (* move only the trunk WIRE of C_5 onto C_6's track: its own vias stay
     behind (open + floating cells) while the metal lands on a foreign
     net (short) *)
  let l = spiral6 in
  let xa = primary_x l 5 and xb = primary_x l 6 in
  let mutated =
    mutate_wires
      (List.map (fun (w : L.wire) ->
           if w.L.w_cap = 5 && w.L.w_kind = L.Trunk && near w.L.w_ax xa then
             { w with L.w_ax = xb; w_bx = xb }
           else w))
      l
  in
  check_fired "nudge trunk onto neighbouring track"
    [ "lvs/floating-cell"; "lvs/open"; "lvs/short" ]
    (Lvs.Check.check mutated)

(* a single-trunk capacitor sharing a channel with another net's trunk,
   over a set of candidate layouts *)
let find_merge_pair () =
  let candidates =
    [ spiral6;
      layout_of Ccplace.Style.Chessboard 6;
      layout_of Ccplace.Style.Spiral 8;
      layout_of Ccplace.Style.Rowwise 6 ]
  in
  let of_layout l =
    let found = ref None in
    Array.iter
      (fun (na : L.capnet) ->
         match na.L.cn_trunks with
         | [ tka ] ->
           Array.iter
             (fun (nb : L.capnet) ->
                if nb.L.cn_cap <> na.L.cn_cap then
                  List.iter
                    (fun (tkb : L.trunk) ->
                       if
                         tkb.L.tk_channel = tka.L.tk_channel && !found = None
                       then
                         found := Some (na.L.cn_cap, tka.L.tk_x, tkb.L.tk_x))
                    nb.L.cn_trunks)
             l.L.nets
         | _ -> ())
      l.L.nets;
    Option.map (fun (a, xa, xb) -> (l, a, xa, xb)) !found
  in
  match List.find_map of_layout candidates with
  | Some r -> r
  | None -> Alcotest.fail "no mergeable track pair in candidate layouts"

let test_mut_merge_tracks () =
  (* move C_a's whole bundle — trunk, vias, stub ends — onto a
     channel-mate's track: the net stays whole but lands on foreign
     metal, a pure short *)
  let l, a, xa, xb = find_merge_pair () in
  let mutated =
    { (mutate_wires
         (List.map (fun (w : L.wire) ->
              if w.L.w_cap = a && w.L.w_kind = L.Trunk && near w.L.w_ax xa
              then { w with L.w_ax = xb; w_bx = xb }
              else if
                w.L.w_cap = a && w.L.w_kind = L.Stub && near w.L.w_bx xa
              then { w with L.w_bx = xb }
              else w))
         l)
      with
      L.vias =
        List.map
          (fun (v : L.via) ->
             if v.L.v_cap = a && near v.L.v_x xa then { v with L.v_x = xb }
             else v)
          l.L.vias }
  in
  check_fired "merge two tracks" [ "lvs/short" ] (Lvs.Check.check mutated)

let test_mut_dangling_via () =
  let l = spiral6 in
  (* above the top row of cells: inside the outline, touching nothing *)
  let v =
    { L.v_cap = 3; v_x = l.L.width /. 2.; v_y = l.L.height -. 1e-3; v_p = 1 }
  in
  check_fired "inject stray via" [ "lvs/dangling" ]
    (Lvs.Check.check { l with L.vias = v :: l.L.vias })

let test_mut_netbuild_mismatch () =
  (* geometry untouched, plan corrupted: the RC tree silently models
     fewer cells than the drawn net connects *)
  let l = spiral6 in
  (* drop a group that owns >= 2 cells: its attach cell survives in the
     tree through the stub strap, so only a multi-cell group leaves a
     detectable hole in cell_nodes *)
  let k, victim =
    let found = ref None in
    Array.iter
      (fun (n : L.capnet) ->
         if !found = None then
           match
             List.find_opt
               (fun (g : Ccroute.Group.t) ->
                  List.length g.Ccroute.Group.cells >= 2)
               n.L.cn_groups
           with
           | Some g -> found := Some (n.L.cn_cap, g.Ccroute.Group.id)
           | None -> ())
      l.L.nets;
    match !found with
    | Some r -> r
    | None -> Alcotest.fail "no multi-cell group in spiral6"
  in
  let net = L.net l k in
  let nets = Array.copy l.L.nets in
  nets.(k) <-
    { net with
      L.cn_groups =
        List.filter
          (fun (g : Ccroute.Group.t) -> g.Ccroute.Group.id <> victim)
          net.L.cn_groups };
  check_fired "drop a group from the plan"
    [ "lvs/netbuild-mismatch" ]
    (Lvs.Check.check { l with L.nets })

(* --- unrouted capacitors: triage instead of crash --- *)

let unrouted_layout k l =
  let nets = Array.copy l.L.nets in
  nets.(k) <- { (L.net l k) with L.cn_trunks = []; cn_bridge_y = None };
  { (mutate_wires
       (List.filter (fun (w : L.wire) ->
            not
              (w.L.w_cap = k
               && (w.L.w_kind = L.Trunk || w.L.w_kind = L.Stub
                   || w.L.w_kind = L.Bridge))))
       l)
    with
    L.nets;
    vias = List.filter (fun (v : L.via) -> v.L.v_cap <> k) l.L.vias }

let test_unrouted_is_open () =
  check_fired "unrouted net" [ "lvs/open" ]
    (Lvs.Check.check (unrouted_layout 2 spiral6))

let test_netbuild_unrouted_rejected () =
  let l = unrouted_layout 2 spiral6 in
  match Extract.Netbuild.build l ~cap:2 with
  | _ -> Alcotest.fail "expected Verify.Engine.Rejected"
  | exception Verify.Engine.Rejected { what; diagnostics } ->
    Alcotest.(check string) "artifact name" "RC extraction of C_2" what;
    check_fired "rejected diagnostics" [ "lvs/open" ] diagnostics

(* --- satellite regressions in ccroute --- *)

let test_mst_disconnected_message () =
  Alcotest.check_raises "components and orphan named"
    (Invalid_argument
       "Mst.prim: graph is disconnected (2 components; node 2 unreachable \
        from node 0)")
    (fun () ->
       ignore
         (Ccroute.Mst.prim ~nodes:4 ~edges:[| (0, 1, 1.); (2, 3, 1.) |]));
  Alcotest.check_raises "isolated node"
    (Invalid_argument
       "Mst.prim: graph is disconnected (2 components; node 2 unreachable \
        from node 0)")
    (fun () ->
       ignore (Ccroute.Mst.prim ~nodes:3 ~edges:[| (0, 1, 1.) |]))

let test_trunk_channels_consistent () =
  (* the invariant that makes Layout.build's per-channel track lookup
     total: every channel a capacitor's plan routes name carries exactly
     one trunk of that capacitor *)
  List.iter
    (fun style ->
       let l = layout_of style 8 in
       Array.iter
         (fun (n : L.capnet) ->
            let plan_channels =
              List.sort_uniq Int.compare
                (List.map
                   (fun (r : Ccroute.Plan.route) -> r.Ccroute.Plan.channel)
                   (Ccroute.Plan.routes_of_cap l.L.plan n.L.cn_cap))
            in
            let trunk_channels =
              List.sort Int.compare
                (List.map (fun (tk : L.trunk) -> tk.L.tk_channel) n.L.cn_trunks)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s C_%d channels" (Ccplace.Style.name style)
                 n.L.cn_cap)
              plan_channels trunk_channels)
         l.L.nets)
    (sweep_styles 8)

let test_check_order_and_tally () =
  (* Ccroute.Check.run returns its findings in Diag order: rule id, then
     detail *)
  let a = Ccroute.Check.r_net_coverage and b = Ccroute.Check.r_net_routed in
  let v rule detail = Diag.make rule detail in
  let vs = [ v b "2"; v a "z"; v b "1"; v a "a" ] in
  Alcotest.(check (list (pair string string)))
    "sorted by rule then detail"
    [ (a.Diag.id, "a"); (a.Diag.id, "z"); (b.Diag.id, "1"); (b.Diag.id, "2") ]
    (List.map
       (fun (x : Diag.t) -> (x.Diag.rule.Diag.id, x.Diag.detail))
       (Diag.sort vs));
  Alcotest.(check (list (pair string int)))
    "tally in rule order"
    [ (a.Diag.id, 2); (b.Diag.id, 2) ]
    (Diag.tally vs);
  Alcotest.(check (list (pair string int))) "empty tally" [] (Diag.tally []);
  Alcotest.(check int) "equal violations compare 0" 0
    (Diag.compare (v a "x") (v a "x"));
  Alcotest.(check bool) "rule dominates detail" true
    (Diag.compare (v a "z") (v b "a") < 0)

(* --- lvs/* registry entries --- *)

let test_lvs_rules_registered () =
  let lvs_rules =
    List.filter
      (fun (r : Diag.rule) -> String.equal r.Diag.category "lvs")
      Verify.Engine.rules
  in
  Alcotest.(check (list string))
    "catalogued"
    [ "lvs/dangling"; "lvs/floating-cell"; "lvs/netbuild-mismatch";
      "lvs/open"; "lvs/short"; "lvs/top-open" ]
    (Diag.ids lvs_rules);
  Alcotest.(check bool) "dangling is a warning" true
    (Verify.Lvs_rules.r_dangling.Diag.severity = Diag.Warning)

let () =
  let open Alcotest in
  run "lvs"
    [ ( "sweepline",
        [ test_case "basic contacts" `Quick test_sweepline_basic;
          test_case "points" `Quick test_sweepline_points;
          test_case "rejects rectangles" `Quick test_sweepline_rejects_rect;
          test_case "matches all-pairs oracle" `Quick
            test_sweepline_matches_all_pairs ] );
      ( "clean",
        [ test_case "style x bits sweep" `Slow test_clean_sweep;
          test_case "parallel wires" `Quick test_clean_parallel_wires;
          test_case "odd-N chessboard" `Quick test_odd_chessboard;
          test_case "stub planarity repair" `Quick test_stub_planarity_repair;
          test_case "stats" `Quick test_stats_sane ] );
      ( "mutations",
        [ test_case "drop attach via" `Quick test_mut_drop_attach_via;
          test_case "delete bridge" `Quick test_mut_drop_bridge;
          test_case "nudge trunk" `Quick test_mut_nudge_trunk;
          test_case "merge tracks" `Quick test_mut_merge_tracks;
          test_case "dangling via" `Quick test_mut_dangling_via;
          test_case "netbuild mismatch" `Quick test_mut_netbuild_mismatch ] );
      ( "triage",
        [ test_case "unrouted net is lvs/open" `Quick test_unrouted_is_open;
          test_case "Netbuild rejects with diagnostics" `Quick
            test_netbuild_unrouted_rejected ] );
      ( "ccroute satellites",
        [ test_case "Mst.prim disconnected message" `Quick
            test_mst_disconnected_message;
          test_case "trunk channels consistent" `Quick
            test_trunk_channels_consistent;
          test_case "Check order and tally" `Quick
            test_check_order_and_tally ] );
      ( "registry",
        [ test_case "lvs rules catalogued" `Quick test_lvs_rules_registered ] )
    ]
