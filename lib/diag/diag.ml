module Json = Telemetry.Json

type severity =
  | Error
  | Warning
  | Info

let severity_rank (s : severity) =
  match s with Error -> 0 | Warning -> 1 | Info -> 2

let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

let severity_name (s : severity) =
  match s with
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type rule = {
  id : string;
  category : string;
  severity : severity;
  doc : string;
}

type loc =
  | Element of string
  | Source of { file : string; line : int; col : int }

type t = {
  rule : rule;
  loc : loc option;
  detail : string;
}

let make ?loc rule detail = { rule; loc; detail }

let makef ?loc rule fmt = Printf.ksprintf (make ?loc rule) fmt

let severity d = d.rule.severity

let compare_loc a b =
  match (a, b) with
  | Element a, Element b -> String.compare a b
  | Source a, Source b ->
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.line b.line in
      if c <> 0 then c else Int.compare a.col b.col
  | Element _, Source _ -> -1
  | Source _, Element _ -> 1

let compare a b =
  let c = compare_severity (severity a) (severity b) in
  if c <> 0 then c
  else
    let c = String.compare a.rule.id b.rule.id in
    if c <> 0 then c
    else
      let c = Option.compare compare_loc a.loc b.loc in
      if c <> 0 then c else String.compare a.detail b.detail

let sort diags = List.sort compare diags

let count sev diags =
  List.length (List.filter (fun d -> severity d = sev) diags)

let errors diags = List.filter (fun d -> severity d = Error) diags

let rule_ids diags =
  List.sort_uniq String.compare (List.map (fun d -> d.rule.id) diags)

let tally diags =
  List.map
    (fun id ->
       (id, List.length (List.filter (fun d -> String.equal d.rule.id id) diags)))
    (rule_ids diags)

let pp ppf d =
  Format.fprintf ppf "%s[%s]%s %s" (severity_name (severity d)) d.rule.id
    (match d.loc with
     | None -> ""
     | Some (Element l) -> " " ^ l ^ ":"
     | Some (Source { file; line; col }) ->
       Printf.sprintf " %s:%d:%d:" file line col)
    d.detail

(* --- catalogues --- *)

let catalogue ~owner rules =
  let sorted = List.sort (fun a b -> String.compare a.id b.id) rules in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if String.equal a.id b.id then
        invalid_arg (owner ^ ": duplicate rule id " ^ a.id);
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

let find rules id = List.find_opt (fun r -> String.equal r.id id) rules

let ids rules = List.map (fun r -> r.id) rules

let pattern_matches p id =
  let strip suffix p =
    if Filename.check_suffix p suffix then Filename.chop_suffix p suffix
    else p
  in
  let family = strip "*" p |> strip "/" in
  String.equal id p
  || String.starts_with ~prefix:(family ^ "/") id
     && String.length id > String.length family + 1

let matches ~patterns id = List.exists (fun p -> pattern_matches p id) patterns

let unmatched_patterns rules patterns =
  List.filter
    (fun p -> not (List.exists (fun r -> pattern_matches p r.id) rules))
    patterns

let pp_rule ppf r =
  Format.fprintf ppf "%s[%s] (%s): %s" (severity_name r.severity) r.id
    r.category r.doc

(* --- the gate --- *)

let disqualifies ?(werror = false) (s : severity) =
  match s with
  | Error -> true
  | Warning -> werror
  | Info -> false

let gate ?werror diags =
  if List.exists (fun d -> disqualifies ?werror (severity d)) diags then
    Stdlib.Error (sort diags)
  else Ok ()

exception Rejected of { what : string; diagnostics : t list }

let assert_clean ?werror ?(what = "artifact") diags =
  match gate ?werror diags with
  | Ok () -> ()
  | Stdlib.Error diagnostics -> raise (Rejected { what; diagnostics })

(* --- rendering --- *)

let summary_line ?(clean = "clean") diags =
  let part (sev, what) =
    match count sev diags with
    | 0 -> None
    | n -> Some (Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s"))
  in
  match
    List.filter_map part
      [ (Error, "error"); (Warning, "warning"); (Info, "info") ]
  with
  | [] -> clean
  | parts -> String.concat ", " parts

let text ?summary diags =
  let summary = Option.value summary ~default:(summary_line diags) in
  String.concat ""
    (List.map (fun d -> Format.asprintf "%a\n" pp d) (sort diags))
  ^ summary ^ "\n"

let () =
  Printexc.register_printer (function
    | Rejected { what; diagnostics } ->
      let shown = List.filteri (fun i _ -> i < 8) (errors diagnostics) in
      Some
        (Format.asprintf "@[<v>Diag.Rejected (%s): %s%a@]" what
           (summary_line diagnostics)
           (Format.pp_print_list ~pp_sep:(fun _ () -> ())
              (fun ppf d -> Format.fprintf ppf "@,  %a" pp d))
           shown)
    | _ -> None)

let num n = Json.Num (float_of_int n)

let diagnostic_json d =
  let head =
    [ ("rule", Json.Str d.rule.id);
      ("category", Json.Str d.rule.category);
      ("severity", Json.Str (severity_name (severity d))) ]
  in
  let loc =
    match d.loc with
    | None -> []
    | Some (Element l) -> [ ("loc", Json.Str l) ]
    | Some (Source { file; line; col }) ->
      [ ("file", Json.Str file); ("line", num line); ("col", num col) ]
  in
  Json.Obj (head @ loc @ [ ("detail", Json.Str d.detail) ])

let to_json ?(head = []) ?(counts = []) ?(tail = []) diags =
  let diags = sort diags in
  let summary =
    [ ("errors", num (count Error diags));
      ("warnings", num (count Warning diags));
      ("infos", num (count Info diags));
      ("total", num (List.length diags)) ]
  in
  Json.Obj
    ((("version", num 1) :: head)
     @ [ ("summary", Json.Obj (summary @ counts));
         ("diagnostics", Json.Arr (List.map diagnostic_json diags)) ]
     @ tail)

let rule_json r =
  Json.Obj
    [ ("id", Json.Str r.id);
      ("category", Json.Str r.category);
      ("severity", Json.Str (severity_name r.severity));
      ("doc", Json.Str r.doc) ]

let catalogue_json ?(head = []) rules =
  Json.Obj
    ((("version", num 1) :: head)
     @ [ ("rules", Json.Arr (List.map rule_json rules)) ])

let runs_json runs = Json.Obj [ ("version", num 1); ("runs", Json.Arr runs) ]
