module Json = Telemetry.Json

type t = {
  id : string option;
  style : Ccplace.Style.t;
  bits : int;
  seed : int;
  trials : int;
  tech : Tech.Process.t;
}

type error = {
  code : string;
  detail : string;
  rules : string list;
}

let invalid fmt = Printf.ksprintf (fun detail -> Error { code = "invalid-request"; detail; rules = [] }) fmt

let ( let* ) = Result.bind

let known_fields =
  [ "id"; "style"; "bits"; "granularity"; "core_bits"; "seed"; "trials";
    "tech"; "overrides" ]

let override_keys =
  [ "via_resistance"; "plate_resistance"; "wire_pitch"; "cell_width";
    "cell_height"; "cell_spacing"; "unit_cap"; "top_substrate_cap";
    "gradient_ppm"; "gradient_theta_deg"; "rho_u"; "corr_length";
    "mismatch_coeff" ]

let apply_override tech key v =
  let open Tech.Process in
  match key with
  | "via_resistance" -> Ok { tech with via_resistance = v }
  | "plate_resistance" -> Ok { tech with plate_resistance = v }
  | "wire_pitch" -> Ok { tech with wire_pitch = v }
  | "cell_width" -> Ok { tech with cell_width = v }
  | "cell_height" -> Ok { tech with cell_height = v }
  | "cell_spacing" -> Ok { tech with cell_spacing = v }
  | "unit_cap" -> Ok { tech with unit_cap = v }
  | "top_substrate_cap" -> Ok { tech with top_substrate_cap = v }
  | "gradient_ppm" -> Ok { tech with gradient_ppm = v }
  | "gradient_theta_deg" -> Ok { tech with gradient_theta = v *. Float.pi /. 180. }
  | "rho_u" -> Ok { tech with rho_u = v }
  | "corr_length" -> Ok { tech with corr_length = v }
  | "mismatch_coeff" -> Ok { tech with mismatch_coeff = v }
  | other -> invalid "overrides: unknown key %S" other

(* An optional integer field: absent -> [default]; present -> must be an
   integral finite number within int range. *)
let int_field obj key ~default =
  match Json.member key obj with
  | None | Some Json.Null -> Ok default
  | Some j -> begin
      match Json.to_float j with
      | Some v when Float.is_integer v && Float.abs v < 1e9 ->
        Ok (int_of_float v)
      | Some _ -> invalid "%s: not an integer" key
      | None -> invalid "%s: expected a number" key
    end

let str_field obj key ~default =
  match Json.member key obj with
  | None | Some Json.Null -> Ok default
  | Some j -> begin
      match Json.to_str j with
      | Some s -> Ok s
      | None -> invalid "%s: expected a string" key
    end

let parse_style obj ~bits =
  let* name = str_field obj "style" ~default:"spiral" in
  let has key = match Json.member key obj with
    | None | Some Json.Null -> false
    | Some _ -> true
  in
  let bc_only key =
    if has key then invalid "%s: only valid for style \"bc\"" key else Ok ()
  in
  match name with
  | "spiral" | "chessboard" | "rowwise" ->
    let* () = bc_only "granularity" in
    let* () = bc_only "core_bits" in
    Ok
      (match name with
       | "spiral" -> Ccplace.Style.Spiral
       | "chessboard" -> Ccplace.Style.Chessboard
       | _ -> Ccplace.Style.Rowwise)
  | "bc" ->
    let* granularity = int_field obj "granularity" ~default:2 in
    let* core_bits =
      int_field obj "core_bits"
        ~default:(Ccplace.Block_chess.default_core_bits ~bits)
    in
    if granularity < 1 then invalid "granularity: must be >= 1"
    else if core_bits < 1 then invalid "core_bits: must be >= 1"
    else Ok (Ccplace.Style.Block_chess { core_bits; granularity })
  | other ->
    invalid "style: unknown style %S (spiral|chessboard|rowwise|bc)" other

let parse_tech obj =
  let* base = str_field obj "tech" ~default:"finfet" in
  let* tech =
    match base with
    | "finfet" -> Ok Tech.Process.finfet_12nm
    | "bulk" -> Ok Tech.Process.bulk_legacy
    | other -> invalid "tech: unknown preset %S (finfet|bulk)" other
  in
  match Json.member "overrides" obj with
  | None | Some Json.Null -> Ok tech
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun acc (key, j) ->
         let* tech = acc in
         match Json.to_float j with
         | Some v when Float.is_finite v -> apply_override tech key v
         | Some _ -> invalid "overrides.%s: not finite" key
         | None -> invalid "overrides.%s: expected a number" key)
      (Ok tech) fields
  | Some _ -> invalid "overrides: expected an object"

let verify_gate ~bits ~style ~tech =
  let diags =
    Verify.Engine.check_tech tech @ Verify.Engine.check_style ~bits style
  in
  match Diag.gate diags with
  | Ok () -> Ok ()
  | Error diags ->
    let errors = Diag.errors diags in
    Error
      { code = "verify-rejected";
        detail =
          Printf.sprintf "%d verify error%s" (List.length errors)
            (if List.length errors = 1 then "" else "s");
        rules = Diag.rule_ids errors }

let of_json json =
  match json with
  | Json.Obj fields ->
    let* () =
      List.fold_left
        (fun acc (key, _) ->
           let* () = acc in
           if List.mem key known_fields then Ok ()
           else invalid "unknown field %S" key)
        (Ok ()) fields
    in
    let* id =
      match Json.member "id" json with
      | None | Some Json.Null -> Ok None
      | Some j -> begin
          match Json.to_str j with
          | Some s -> Ok (Some s)
          | None -> invalid "id: expected a string"
        end
    in
    let* bits = int_field json "bits" ~default:8 in
    let* () =
      if bits < 2 || bits > Ccgrid.Weights.max_bits then
        invalid "bits: out of range [2, %d]" Ccgrid.Weights.max_bits
      else Ok ()
    in
    let* style = parse_style json ~bits in
    let* seed = int_field json "seed" ~default:1 in
    let* () = if seed < 0 then invalid "seed: must be >= 0" else Ok () in
    let* trials = int_field json "trials" ~default:0 in
    let* () =
      if trials < 0 then invalid "trials: must be >= 0"
      else if trials > 1_000_000 then invalid "trials: capped at 1000000"
      else Ok ()
    in
    let* tech = parse_tech json in
    let* () = verify_gate ~bits ~style ~tech in
    Ok { id; style; bits; seed; trials; tech }
  | _ -> invalid "request must be a JSON object"

let of_line line =
  match Json.parse line with
  | Ok json -> of_json json
  | Error msg -> Error { code = "malformed"; detail = msg; rules = [] }

let to_json ?id ?granularity ?core_bits ?seed ?trials ?tech ?overrides ~style
    ~bits () =
  let opt key f = function None -> [] | Some v -> [ (key, f v) ] in
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    (opt "id" (fun s -> Json.Str s) id
     @ [ ("style", Json.Str style); ("bits", num bits) ]
     @ opt "granularity" num granularity
     @ opt "core_bits" num core_bits
     @ opt "seed" num seed
     @ opt "trials" num trials
     @ opt "tech" (fun s -> Json.Str s) tech
     @ opt "overrides"
         (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs))
         overrides)

let error_to_json e =
  Json.Obj
    ([ ("code", Json.Str e.code); ("detail", Json.Str e.detail) ]
     @ if e.rules = [] then []
       else [ ("rules", Json.Arr (List.map (fun r -> Json.Str r) e.rules)) ])
