(* Discovery and loading of the .cmt Typedtrees dune leaves under
   _build/default/lib/<dir>/.<libname>.objs/byte/.  Each Implementation
   cmt is summarized immediately; the result is the whole-program
   universe the analyses run on, plus meta/cmt-error diagnostics for
   files that would not load. *)

type universe = {
  libs : string list;  (* lib/ dir names with a dune file, sorted *)
  mods : Summary.moddef list;
  lib_of_module : string -> string option;
      (* canonical head module ("Ccplace") -> lib dir ("ccplace") *)
  cmt_count : int;
  errors : Diag.t list;
}

let readdir_sorted path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.to_list entries
  end
  else []

let lib_dirs ~root =
  readdir_sorted (Filename.concat root "lib")
  |> List.filter (fun d ->
      let dir = Filename.concat (Filename.concat root "lib") d in
      Sys.is_directory dir
      && Sys.file_exists (Filename.concat dir "dune"))

(* The byte/ objs directories for one lib dir, e.g.
   _build/default/lib/ccplace/.ccplace.objs/byte. *)
let objs_dirs ~root lib =
  let built = Filename.concat root (Filename.concat "_build/default/lib" lib)
  in
  readdir_sorted built
  |> List.filter_map (fun entry ->
      if Filename.check_suffix entry ".objs" then begin
        let byte = Filename.concat (Filename.concat built entry) "byte" in
        if Sys.file_exists byte && Sys.is_directory byte then Some byte
        else None
      end
      else None)

let cmt_paths ~root lib =
  List.concat_map
    (fun byte ->
       readdir_sorted byte
       |> List.filter (fun f -> Filename.check_suffix f ".cmt")
       |> List.map (Filename.concat byte))
    (objs_dirs ~root lib)

let available ~root =
  List.exists (fun lib -> cmt_paths ~root lib <> []) (lib_dirs ~root)

(* Generated alias modules (ccplace.ml-gen) hold only module aliases;
   nothing to summarize. *)
let is_generated source = Filename.check_suffix source "-gen"

let load_one ~lib path =
  match Cmt_format.read_cmt path with
  | exception (Cmt_format.Error _ | Cmi_format.Error _) ->
    Error (Printf.sprintf "not a loadable cmt (compiler mismatch?): %s" path)
  | exception Sys_error msg -> Error msg
  | exception (End_of_file | Failure _) ->
    Error (Printf.sprintf "truncated or corrupt cmt: %s" path)
  | info -> begin
      match info.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
        let source =
          match info.Cmt_format.cmt_sourcefile with
          | Some s -> s
          | None -> path
        in
        if is_generated source then Ok None
        else
          Ok
            (Some
               (Summary.of_structure ~lib
                  ~modname:info.Cmt_format.cmt_modname ~file:source str))
      | _ -> Ok None  (* interfaces, packs, partial trees *)
    end

let load ~root =
  let libs = lib_dirs ~root in
  let mods = ref [] in
  let errors = ref [] in
  let count = ref 0 in
  List.iter
    (fun lib ->
       List.iter
         (fun path ->
            incr count;
            match load_one ~lib path with
            | Ok (Some m) -> mods := m :: !mods
            | Ok None -> ()
            | Error detail ->
              errors :=
                Srclint.Source.diag
                  ~rule:Srclint.Typed_rules.cmt_error
                  ~file:(Filename.concat "lib" lib) ~line:0 detail
                :: !errors)
         (cmt_paths ~root lib))
    libs;
  let mods = List.rev !mods in
  let heads = Hashtbl.create 32 in
  List.iter
    (fun (m : Summary.moddef) ->
       Hashtbl.replace heads (Names.head m.Summary.m_name) m.Summary.m_lib)
    mods;
  { libs;
    mods;
    lib_of_module = Hashtbl.find_opt heads;
    cmt_count = !count;
    errors = List.rev !errors }
