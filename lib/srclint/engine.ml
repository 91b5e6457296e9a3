type suppression = {
  entry : Allowlist.entry;
  matched : int;
}

type result = {
  files_scanned : int;
  diagnostics : Diag.t list;
  suppressions : suppression list;
}

let rules =
  Diag.catalogue ~owner:"Srclint.Engine"
    (Det_rules.rules @ Domain_rules.rules @ Error_rules.rules
     @ Hygiene_rules.rules @ Typed_rules.rules @ Allowlist.rules
     @ [ Source.parse_error_rule ])

let default_roots = [ "lib"; "bin"; "bench"; "test" ]

let skip_dir name =
  name = "_build" || (String.length name > 0 && name.[0] = '.')

let ml_files ~root =
  let out = ref [] in
  let rec walk rel_dir =
    let abs = Filename.concat root rel_dir in
    match Sys.readdir abs with
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
           let rel = rel_dir ^ "/" ^ name in
           let abs = Filename.concat root rel in
           if Sys.is_directory abs then begin
             if not (skip_dir name) then walk rel
           end
           else if Filename.check_suffix name ".ml" then out := rel :: !out)
        entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun r -> if Sys.file_exists (Filename.concat root r) then walk r)
    default_roots;
  List.sort String.compare !out

let checkers =
  [ Det_rules.check; Domain_rules.check; Error_rules.check;
    Hygiene_rules.check ]

let check_source src =
  List.concat_map (fun check -> check src) checkers

let check_string ~path contents =
  match Source.parse ~path contents with
  | Ok src -> Diag.sort (check_source src)
  | Error diag -> [ diag ]

let check_file ~root path =
  match
    In_channel.with_open_bin (Filename.concat root path) In_channel.input_all
  with
  | contents -> check_string ~path contents
  | exception Sys_error msg ->
    [ Source.diagf ~rule:Source.parse_error_rule ~file:path
        "unreadable: %s" msg ]

let apply_allowlist (allowlist : Allowlist.t) diags =
  let suppressed_by d =
    let file, _, _ = Source.position d in
    List.find_opt
      (fun (e : Allowlist.entry) ->
         e.Allowlist.rule_id = d.Diag.rule.Diag.id && e.Allowlist.path = file)
      allowlist.Allowlist.entries
  in
  let kept, matches =
    List.fold_left
      (fun (kept, matches) d ->
         match suppressed_by d with
         | Some e -> (kept, e.Allowlist.line :: matches)
         | None -> (d :: kept, matches))
      ([], []) diags
  in
  let meta = ref [] in
  let emit rule (e : Allowlist.entry) fmt =
    Printf.ksprintf
      (fun detail ->
         meta :=
           Source.diag ~rule ~file:allowlist.Allowlist.file
             ~line:e.Allowlist.line detail
           :: !meta)
      fmt
  in
  let suppressions =
    let seen = ref [] in
    List.map
      (fun (e : Allowlist.entry) ->
         let matched =
           List.length (List.filter (fun l -> l = e.Allowlist.line) matches)
         in
         let key = (e.Allowlist.rule_id, e.Allowlist.path) in
         if List.mem key !seen then
           (* A later duplicate can never match (the first entry wins in
              [suppressed_by]), so it gets exactly this one diagnostic —
              not a coin-flip between duplicate and stale. *)
           emit Allowlist.duplicate_rule e
             "duplicate suppression of %s in %s (an earlier entry already \
              covers it)"
             e.Allowlist.rule_id e.Allowlist.path
         else begin
           seen := key :: !seen;
           if e.Allowlist.justification = "" then
             emit Allowlist.missing_justification_rule e
               "suppression of %s in %s has no justification"
               e.Allowlist.rule_id e.Allowlist.path;
           if Diag.find rules e.Allowlist.rule_id = None then
             emit Allowlist.unknown_rule_rule e "unknown rule %s"
               e.Allowlist.rule_id
           else if matched = 0 then
             emit Allowlist.stale_rule e
               "stale suppression: no %s finding in %s" e.Allowlist.rule_id
               e.Allowlist.path
         end;
         { entry = e; matched })
      allowlist.Allowlist.entries
  in
  (List.rev kept @ List.rev !meta, suppressions)

let run ?rules ?(allowlist = Allowlist.empty) ?typed ~root () =
  let files = ml_files ~root in
  let diags =
    List.concat_map (fun path -> check_file ~root path) files
    @ Option.value typed ~default:[]
  in
  let selected id =
    match rules with
    | None -> true
    | Some patterns -> Diag.matches ~patterns id
  in
  let diags =
    List.filter (fun d -> selected d.Diag.rule.Diag.id) diags
  in
  (* When the typed pass did not run (no .cmt files around, or
     --no-typed), its allowlist entries must not read as stale: the
     violations they excuse were never looked for this run.  A typed run
     that found nothing ([typed = Some []]) stale-checks them normally. *)
  let typed_ran = typed <> None in
  let allowlist =
    { allowlist with
      Allowlist.entries =
        List.filter
          (fun (e : Allowlist.entry) ->
             selected e.Allowlist.rule_id
             && (typed_ran
                 || not (Typed_rules.is_typed_rule_id e.Allowlist.rule_id)))
          allowlist.Allowlist.entries }
  in
  let diagnostics, suppressions = apply_allowlist allowlist diags in
  { files_scanned = List.length files;
    diagnostics = Diag.sort diagnostics;
    suppressions }

(* --- reports: the core's renderers plus the files-scanned count and
   the suppressions --- *)

let suppressed_total r =
  List.fold_left (fun acc s -> acc + s.matched) 0 r.suppressions

let summary_line r =
  let plural n what =
    Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")
  in
  let suppressed = suppressed_total r in
  Printf.sprintf "%s (%s scanned%s)"
    (Diag.summary_line ~clean:"source tree clean" r.diagnostics)
    (plural r.files_scanned "file")
    (if suppressed > 0 then ", " ^ plural suppressed "finding" ^ " suppressed"
     else "")

let text r = Diag.text ~summary:(summary_line r) r.diagnostics

let tool = ("tool", Telemetry.Json.Str "cclint")

let json r =
  let open Telemetry.Json in
  let num n = Num (float_of_int n) in
  let suppression s =
    Obj
      [ ("rule", Str s.entry.Allowlist.rule_id);
        ("path", Str s.entry.Allowlist.path);
        ("line", num s.entry.Allowlist.line);
        ("matched", num s.matched);
        ("justification", Str s.entry.Allowlist.justification) ]
  in
  to_string
    (Diag.to_json ~head:[ tool ]
       ~counts:
         [ ("suppressed", num (suppressed_total r));
           ("files_scanned", num r.files_scanned) ]
       ~tail:[ ("suppressions", Arr (List.map suppression r.suppressions)) ]
       r.diagnostics)
  ^ "\n"

let rules_json () =
  Telemetry.Json.to_string (Diag.catalogue_json ~head:[ tool ] rules) ^ "\n"
