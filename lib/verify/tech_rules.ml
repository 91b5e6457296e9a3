let tech id severity doc = { Diag.id; category = "tech"; severity; doc }

let r_resistance =
  tech "tech/positive-resistance" Diag.Error
    "Via, plate and per-layer sheet resistances must be strictly positive \
     (the RC network is singular otherwise)."

let r_capacitance =
  tech "tech/positive-capacitance" Diag.Error
    "The unit capacitance must be strictly positive; per-layer area and \
     coupling capacitances and the top-substrate capacitance must be \
     non-negative."

let r_geometry =
  tech "tech/geometry" Diag.Error
    "Cell width/height and wire pitch must be strictly positive, cell \
     spacing non-negative, and the wire pitch smaller than the cell width \
     (channel tracks must fit next to a cell)."

let r_stack =
  tech "tech/layer-stack" Diag.Error
    "The metal stack must list M1, M2 and M3 exactly once each, in \
     monotone bottom-up order."

let r_statistics =
  tech "tech/statistics" Diag.Error
    "Statistical parameters must be sane: 0 <= rho_u < 1, a strictly \
     positive correlation length, non-negative gradient slope and mismatch \
     coefficient, and a finite gradient angle."

let rules = [ r_resistance; r_capacitance; r_geometry; r_stack; r_statistics ]

let check (tech : Tech.Process.t) =
  let out = ref [] in
  let emit rule ?loc fmt =
    let loc = Option.map (fun l -> Diag.Element l) loc in
    Printf.ksprintf (fun d -> out := Diag.make ?loc rule d :: !out) fmt
  in
  let layer_loc (l : Tech.Layer.t) =
    Format.asprintf "%a" Tech.Layer.pp_name l.Tech.Layer.name
  in
  (* resistances *)
  if not (tech.Tech.Process.via_resistance > 0.) then
    emit r_resistance "via resistance %g ohm is not positive"
      tech.Tech.Process.via_resistance;
  if not (tech.Tech.Process.plate_resistance > 0.) then
    emit r_resistance "plate resistance %g ohm is not positive"
      tech.Tech.Process.plate_resistance;
  List.iter
    (fun (l : Tech.Layer.t) ->
       if not (l.Tech.Layer.resistance > 0.) then
         emit r_resistance ~loc:(layer_loc l)
           "sheet resistance %g ohm/um is not positive" l.Tech.Layer.resistance)
    tech.Tech.Process.stack;
  (* capacitances *)
  if not (tech.Tech.Process.unit_cap > 0.) then
    emit r_capacitance "unit capacitance %g fF is not positive"
      tech.Tech.Process.unit_cap;
  if not (tech.Tech.Process.top_substrate_cap >= 0.) then
    emit r_capacitance "top-substrate capacitance %g fF/um is negative"
      tech.Tech.Process.top_substrate_cap;
  List.iter
    (fun (l : Tech.Layer.t) ->
       if not (l.Tech.Layer.capacitance >= 0.) then
         emit r_capacitance ~loc:(layer_loc l)
           "area capacitance %g fF/um is negative" l.Tech.Layer.capacitance;
       if not (l.Tech.Layer.coupling >= 0.) then
         emit r_capacitance ~loc:(layer_loc l)
           "coupling capacitance %g fF/um is negative" l.Tech.Layer.coupling)
    tech.Tech.Process.stack;
  (* geometry *)
  if not (tech.Tech.Process.cell_width > 0.) then
    emit r_geometry "cell width %g um is not positive"
      tech.Tech.Process.cell_width;
  if not (tech.Tech.Process.cell_height > 0.) then
    emit r_geometry "cell height %g um is not positive"
      tech.Tech.Process.cell_height;
  if not (tech.Tech.Process.cell_spacing >= 0.) then
    emit r_geometry "cell spacing %g um is negative"
      tech.Tech.Process.cell_spacing;
  if not (tech.Tech.Process.wire_pitch > 0.) then
    emit r_geometry "wire pitch %g um is not positive"
      tech.Tech.Process.wire_pitch
  else if tech.Tech.Process.cell_width > 0.
          && not (tech.Tech.Process.wire_pitch < tech.Tech.Process.cell_width)
  then
    emit r_geometry "wire pitch %g um is not smaller than the cell width %g um"
      tech.Tech.Process.wire_pitch tech.Tech.Process.cell_width;
  (* layer stack *)
  let names =
    List.map (fun (l : Tech.Layer.t) -> l.Tech.Layer.name)
      tech.Tech.Process.stack
  in
  if names <> [ Tech.Layer.M1; Tech.Layer.M2; Tech.Layer.M3 ] then
    emit r_stack "stack is [%s], expected [M1; M2; M3] bottom-up"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Tech.Layer.pp_name) names));
  (* statistics *)
  if not (tech.Tech.Process.rho_u >= 0. && tech.Tech.Process.rho_u < 1.) then
    emit r_statistics "unit correlation rho_u %g outside [0, 1)"
      tech.Tech.Process.rho_u;
  if not (tech.Tech.Process.corr_length > 0.) then
    emit r_statistics "correlation length %g um is not positive"
      tech.Tech.Process.corr_length;
  if not (tech.Tech.Process.mismatch_coeff >= 0.) then
    emit r_statistics "mismatch coefficient %g is negative"
      tech.Tech.Process.mismatch_coeff;
  if not (tech.Tech.Process.gradient_ppm >= 0.) then
    emit r_statistics "gradient slope %g ppm/um is negative"
      tech.Tech.Process.gradient_ppm;
  if not (Float.is_finite tech.Tech.Process.gradient_theta) then
    emit r_statistics "gradient angle %g rad is not finite"
      tech.Tech.Process.gradient_theta;
  List.rev !out
