(* The source-lint CLI surface, shared by the standalone [cclint]
   executable and the [ccgen devlint] subcommand.  Lives in bin/ (not
   lib/srclint) because it prints and exits — which library code must not
   do, per the very rules it runs. *)

open Cmdliner

let doc =
  "Static analysis of this repository's own OCaml sources: determinism, \
   domain-safety, error-handling and hygiene contracts (docs/SRCLINT.md)."

let root_arg =
  let doc =
    "Repository root to scan; lib/, bin/, bench/ and test/ under it."
  in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let werror_arg =
  let doc = "Treat warnings as findings (nonzero exit)." in
  Arg.(value & flag & info [ "werror" ] ~doc)

let json_arg =
  let doc = "Emit the machine-readable JSON report instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let rules_arg =
  let doc =
    "Comma-separated rule ids or families to run (e.g. \
     $(b,det/wall-clock,hyg)); default all."
  in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"IDS" ~doc)

let allowlist_arg =
  let doc = "Suppression file, relative to $(b,--root)." in
  Arg.(value & opt string ".cclint" & info [ "allowlist" ] ~docv:"FILE" ~doc)

let no_allowlist_arg =
  let doc = "Ignore the suppression file (report everything)." in
  Arg.(value & flag & info [ "no-allowlist" ] ~doc)

let list_rules_arg =
  let doc = "Print the rule catalogue and exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let typed_arg =
  let doc =
    "Force the typed whole-program pass (lib/ccdeps: $(b,int/*), \
     $(b,arch/*)); error if no .cmt files exist under \
     $(b,_build/default/lib).  Default: the pass runs automatically \
     whenever cmts are present."
  in
  Arg.(value & flag & info [ "typed" ] ~doc)

let no_typed_arg =
  let doc = "Skip the typed whole-program pass even when cmts exist." in
  Arg.(value & flag & info [ "no-typed" ] ~doc)

let prune_arg =
  let doc =
    "Rewrite the suppression file in place, dropping every entry \
     $(b,meta/stale-suppression) or $(b,meta/duplicate-suppression) \
     would reject, then exit.  Comments and still-live entries are \
     preserved."
  in
  Arg.(value & flag & info [ "prune" ] ~doc)

let prune ~root ~allowlist_path (result : Srclint.Engine.result) =
  let drop =
    List.filter_map
      (fun (s : Srclint.Engine.suppression) ->
         if
           s.Srclint.Engine.matched = 0
           && Diag.find Srclint.Engine.rules
                s.Srclint.Engine.entry.Srclint.Allowlist.rule_id
              <> None
         then Some s.Srclint.Engine.entry.Srclint.Allowlist.line
         else None)
      result.Srclint.Engine.suppressions
  in
  if drop = [] then
    Printf.printf "cclint: nothing to prune in %s\n" allowlist_path
  else begin
    let path = Filename.concat root allowlist_path in
    match In_channel.with_open_bin path In_channel.input_all with
    | contents ->
      let kept =
        String.split_on_char '\n' contents
        |> List.filteri (fun i _ -> not (List.mem (i + 1) drop))
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" kept));
      Printf.printf "cclint: pruned %d dead suppression(s) from %s\n"
        (List.length drop) allowlist_path
    | exception Sys_error msg ->
      Printf.eprintf "cclint: --prune: %s\n" msg;
      exit 2
  end

let run root werror json rules allowlist_path no_allowlist list_rules
    typed_flag no_typed prune_flag =
  if list_rules then begin
    if json then print_string (Srclint.Engine.rules_json ())
    else List.iter (Format.printf "%a@." Diag.pp_rule) Srclint.Engine.rules;
    exit 0
  end;
  if typed_flag && no_typed then begin
    Printf.eprintf "cclint: --typed and --no-typed are contradictory\n";
    exit 2
  end;
  if prune_flag && no_allowlist then begin
    Printf.eprintf "cclint: --prune needs the suppression file it would \
                    rewrite (drop --no-allowlist)\n";
    exit 2
  end;
  if prune_flag && rules <> None then begin
    Printf.eprintf "cclint: --prune under a --rules filter would drop \
                    entries it never checked; run it unfiltered\n";
    exit 2
  end;
  let rules =
    Option.map
      (fun s ->
         String.split_on_char ',' s
         |> List.map String.trim
         |> List.filter (fun p -> p <> ""))
      rules
  in
  (match rules with
   | Some patterns -> begin
       match Diag.unmatched_patterns Srclint.Engine.rules patterns with
       | [] -> ()
       | bad ->
         Printf.eprintf "cclint: --rules selects no known rule: %s\n"
           (String.concat ", " bad);
         exit 2
     end
   | None -> ());
  let allowlist =
    if no_allowlist then Srclint.Allowlist.empty
    else begin
      match Srclint.Allowlist.load (Filename.concat root allowlist_path) with
      | Ok a -> a
      | Error msg ->
        Printf.eprintf "cclint: %s\n" msg;
        exit 2
    end
  in
  let typed =
    if no_typed then None
    else begin
      let have_cmts = Ccdeps.Typed.available ~root in
      if typed_flag && not have_cmts then begin
        Printf.eprintf
          "cclint: --typed: no .cmt files under %s/_build/default/lib — \
           run `dune build` first\n"
          root;
        exit 2
      end;
      if have_cmts then Some (Ccdeps.Typed.run ~root) else None
    end
  in
  let result = Srclint.Engine.run ?rules ~allowlist ?typed ~root () in
  if result.Srclint.Engine.files_scanned = 0 then begin
    Printf.eprintf
      "cclint: no .ml files under %s/{lib,bin,bench,test} — wrong --root?\n"
      root;
    exit 2
  end;
  if prune_flag then prune ~root ~allowlist_path result
  else begin
    print_string
      ((if json then Srclint.Engine.json else Srclint.Engine.text) result);
    if Result.is_error (Diag.gate ~werror result.Srclint.Engine.diagnostics)
    then exit 1
  end

let term =
  Term.(
    const run $ root_arg $ werror_arg $ json_arg $ rules_arg $ allowlist_arg
    $ no_allowlist_arg $ list_rules_arg $ typed_arg $ no_typed_arg
    $ prune_arg)
