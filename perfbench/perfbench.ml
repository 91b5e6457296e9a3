(* Entry point of the benchmark program.

     perfbench reference
       prints the reference outputs of every flow configuration; the
       committed perfbench/reference.json is its output
       (dune exec perfbench/perfbench.exe -- reference).

     perfbench worker --workload W --seed N --seconds S --trace 0|1
                      --reference FILE --ccgen EXE --socket PATH --spans FILE
       sets the workload up, prints "ready F", where F is the host-speed
       factor over the set-up (see Common.speed_factor), then waits for one stdin
       line: "go" runs the timed phase and prints the report and a
       final "RESULT {json}" line; anything else tears the set-up down.
       perfbench/run.py drives this protocol so that it can time set-up
       from the outside. *)

let reference () =
  let labels = Hashtbl.create 32 in
  let entries =
    List.concat_map
      (fun w ->
         List.filter_map
           (fun (c : Flowload.config) ->
              let l = Flowload.label c in
              if Hashtbl.mem labels l then None
              else begin
                Hashtbl.add labels l ();
                let r = Ccdac.Flow.run ~bits:c.Flowload.bits c.Flowload.style in
                Some (l, Layers.expected_to_json (Layers.expected_of_result r))
              end)
           (Flowload.configs w))
      [ "flow-paper"; "flow-large" ]
  in
  print_string
    (String.concat ",\n"
       (List.map
          (fun (l, j) -> Printf.sprintf "  %s: %s" (Common.Json.escape l)
              (Common.Json.to_string j))
          entries)
     |> Printf.sprintf "{\n%s\n}\n")

let worker args =
  let get key =
    let rec find = function
      | k :: v :: _ when k = key -> v
      | _ :: rest -> find rest
      | [] -> failwith ("missing " ^ key)
    in
    find args
  in
  let workload = get "--workload" in
  let seed = int_of_string (get "--seed") in
  let seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  (* the first call warms the kernels' code and heap up *)
  ignore (Common.speed_factor ());
  let factor0 = Common.speed_factor () in
  let go () =
    Printf.printf "ready %.6f\n%!" (sqrt (factor0 *. Common.speed_factor ()));
    match In_channel.input_line stdin with
    | Some "go" -> true
    | Some _ | None -> false
  in
  match workload with
  | "flow-large" | "flow-paper" ->
    let t = Flowload.setup ~workload ~seed ~reference:(get "--reference") in
    if go () then
      Common.print_outcome
        (if trace then Flowload.run_traced t ~seconds ~spans_path:(get "--spans")
         else Flowload.run_plain t ~seconds)
  | "serve-mix" ->
    let t =
      Serveload.setup ~seed ~trace ~ccgen:(get "--ccgen")
        ~socket:(get "--socket") ~reference:(get "--reference")
    in
    if go () then
      Common.print_outcome (Serveload.run t ~seconds ~spans_path:(get "--spans"))
    else Serveload.teardown t
  | w -> failwith ("unknown workload " ^ w)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "reference" ] -> reference ()
  | "worker" :: args -> worker args
  | _ ->
    prerr_endline "usage: perfbench reference | perfbench worker --workload W ...";
    exit 2
