(* The typed whole-program pass, end to end: load the committed .ccdeps
   manifest and every cmt under _build/default/lib, then run manifest
   validation, taint, escape and layering.  The CLI merges the result
   into the syntactic engine's diagnostics. *)

let manifest_name = ".ccdeps"

let available ~root = Cmts.available ~root

let load_manifest ~root =
  let path = Filename.concat root manifest_name in
  if not (Sys.file_exists path) then Ok Manifest.empty
  else begin
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> Manifest.parse_string ~file:manifest_name contents
    | exception Sys_error msg -> Error msg
  end

let run ~root =
  match load_manifest ~root with
  | Error msg ->
    [ Srclint.Source.diag ~rule:Srclint.Typed_rules.manifest_error
        ~file:manifest_name ~line:0 msg ]
  | Ok manifest ->
    let u = Cmts.load ~root in
    u.Cmts.errors
    @ Analysis.run ~manifest ~libs:u.Cmts.libs
        ~lib_of_module:u.Cmts.lib_of_module u.Cmts.mods
