(* Golden pins for every diagnostics renderer: verify text and JSON,
   cclint text and JSON, both rule catalogues, and the multi-run JSON
   documents of [ccgen lint --json] and [ccgen lvs --json].  Each
   fixture's expected bytes live in test/golden/. *)

(* --- adapter: the only part that names the diagnostics API --- *)

let vdiag ?loc rule detail =
  Diag.make ?loc:(Option.map (fun l -> Diag.Element l) loc) rule detail

let verify_text diags = Diag.text diags

let verify_json ?label diags =
  let head =
    Option.fold ~none:[] ~some:(fun l -> [ ("label", Telemetry.Json.Str l) ])
      label
  in
  Telemetry.Json.to_string (Diag.to_json ~head diags)

let verify_rules_json () =
  Telemetry.Json.to_string (Diag.catalogue_json Verify.Engine.rules)

let lint_runs runs =
  Telemetry.Json.to_string
    (Diag.runs_json
       (List.map
          (fun (label, diags) ->
             Diag.to_json ~head:[ ("label", Telemetry.Json.Str label) ] diags)
          runs))

let lvs_runs runs =
  Telemetry.Json.to_string
    (Diag.runs_json
       (List.map (fun (label, r) -> Lvs.Check.to_json ~label r) runs))

let srclint_text = Srclint.Engine.text
let srclint_json = Srclint.Engine.json
let srclint_rules_json = Srclint.Engine.rules_json

let srclint_rules_text () =
  String.concat ""
    (List.map (Format.asprintf "%a\n" Diag.pp_rule) Srclint.Engine.rules)

(* --- fixtures --- *)

let verify_diags =
  [ vdiag Verify.Place_rules.r_dispersion ~loc:"C_2" "spread 0.41 > 0.40";
    vdiag Verify.Place_rules.r_centroid ~loc:"C_3"
      "centroid off by (0.5, -0.5) \"pitch\" \\ rows";
    vdiag Verify.Place_rules.r_cell_count "total 63 cells, expected 64";
    vdiag Verify.Lvs_rules.r_short ~loc:"component 4"
      "nets C_1 and C_2\tshare\na component" ]

let lvs_result diagnostics ~shapes ~contacts ~components =
  { Lvs.Check.diagnostics; stats = { Lvs.Check.shapes; contacts; components } }

let srclint_result =
  let diags =
    Srclint.Engine.check_string ~path:"lib/fake/we\"ird\\kernel.ml"
      "let now () = Unix.gettimeofday ()\nlet cache = ref []\n\
       let f x = x = 1.0"
    @ Srclint.Engine.check_string ~path:"lib/fake/other.ml"
      "let t () = Sys.time ()"
  in
  let allowlist =
    match
      Srclint.Allowlist.parse_string ~file:".cclint"
        "domain/global-ref lib/fake/we\"ird\\kernel.ml : a \"quoted\" reason\n\
         det/getenv lib/fake/nowhere.ml : stale on purpose\n"
    with
    | Ok a -> a
    | Error msg -> failwith msg
  in
  let diagnostics, suppressions =
    Srclint.Engine.apply_allowlist allowlist diags
  in
  { Srclint.Engine.files_scanned = 2;
    diagnostics = Diag.sort diagnostics;
    suppressions }

let srclint_clean =
  { Srclint.Engine.files_scanned = 1; diagnostics = []; suppressions = [] }

(* [(golden file, how the bytes are compared, renderer)] *)
let cases =
  [ ("verify.txt", `Bytes, fun () -> verify_text verify_diags);
    ("verify_clean.txt", `Bytes, fun () -> verify_text []);
    ( "verify.json", `Bytes,
      fun () -> verify_json ~label:"corrupted \"spiral\" \\ 6-bit" verify_diags );
    ("verify_clean.json", `Bytes, fun () -> verify_json []);
    ("verify_rules.json", `Bytes, verify_rules_json);
    ( "lint_runs.json", `Bytes,
      fun () ->
        lint_runs
          [ ("spiral 6-bit", []); ("bad \"load\".cc", verify_diags) ] );
    ( "lvs_runs.json", `Bytes,
      fun () ->
        lvs_runs
          [ ( "spiral 6-bit",
              lvs_result [] ~shapes:412 ~contacts:530 ~components:8 );
            ( "rowwise 4-bit",
              lvs_result
                [ vdiag Verify.Lvs_rules.r_dangling ~loc:"M2 (1.00,2.00)"
                    "metal anchored to no plate";
                  vdiag Verify.Lvs_rules.r_open ~loc:"C_1" "2 components" ]
                ~shapes:96 ~contacts:120 ~components:7 ) ] );
    ("srclint.txt", `Bytes, fun () -> srclint_text srclint_result);
    ("srclint_clean.txt", `Bytes, fun () -> srclint_text srclint_clean);
    ("srclint.json", `Tree, fun () -> srclint_json srclint_result);
    ("srclint_clean.json", `Tree, fun () -> srclint_json srclint_clean);
    ("srclint_rules.json", `Tree, srclint_rules_json);
    ("srclint_rules.txt", `Bytes, srclint_rules_text) ]

(* --- tests --- *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* A tree pin compares the parsed documents, so only whitespace between
   tokens may differ. *)
let canonical s =
  match Telemetry.Json.parse s with
  | Ok j -> Telemetry.Json.to_string j
  | Error msg -> Alcotest.fail ("not valid JSON: " ^ msg)

let golden (file, how, render) =
  Alcotest.test_case file `Quick (fun () ->
      let expected = read (Filename.concat "golden" file) in
      let actual = render () in
      match how with
      | `Bytes -> Alcotest.(check string) file expected actual
      | `Tree -> Alcotest.(check string) file (canonical expected) (canonical actual))

(* --- one JSON path: arbitrary strings survive a render/parse trip --- *)

let str_at path j =
  List.fold_left
    (fun acc step ->
       Option.bind acc (fun j ->
           match step with
           | `M k -> Telemetry.Json.member k j
           | `I i ->
             Option.bind (Telemetry.Json.to_list j) (fun l ->
                 List.nth_opt l i)))
    (Some j) path
  |> fun j -> Option.bind j Telemetry.Json.to_str

let roundtrip =
  QCheck.Test.make ~name:"strings survive render and parse" ~count:500
    QCheck.(quad string string string string)
    (fun (detail, element, file, label) ->
       let rule = Verify.Place_rules.r_centroid in
       let run =
         Diag.to_json ~head:[ ("label", Telemetry.Json.Str label) ]
           [ Diag.make ~loc:(Diag.Element element) rule detail;
             Diag.make ~loc:(Diag.Source { file; line = 3; col = 1 }) rule
               detail ]
       in
       let doc = Telemetry.Json.to_string (Diag.runs_json [ run ]) in
       match Telemetry.Json.parse doc with
       | Error msg -> QCheck.Test.fail_reportf "unparseable: %s" msg
       | Ok j ->
         let run = [ `M "runs"; `I 0 ] in
         let diag i k = run @ [ `M "diagnostics"; `I i; `M k ] in
         (* the two findings differ only in location; [Element] sorts
            first *)
         str_at (run @ [ `M "label" ]) j = Some label
         && str_at (diag 0 "loc") j = Some element
         && str_at (diag 0 "detail") j = Some detail
         && str_at (diag 1 "file") j = Some file
         && str_at (diag 1 "detail") j = Some detail)

let () =
  Alcotest.run "diag"
    [ ("golden", List.map golden cases);
      ("json", [ QCheck_alcotest.to_alcotest roundtrip ]) ]
