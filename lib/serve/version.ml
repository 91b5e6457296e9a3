let changelog = "1.11.0"

let server () =
  let p = Qor.Provenance.capture () in
  let commit =
    match p.Qor.Provenance.git_commit with
    | Some c -> Printf.sprintf " commit=%s" (String.sub c 0 (min 8 (String.length c)))
    | None -> ""
  in
  Printf.sprintf "ccdac/%s host=%s%s" changelog p.Qor.Provenance.host commit
