module Json = Telemetry.Json

type t = {
  pool : Par.Pool.t option;
  jobs_ : int;
  cache : Cache.t;
  server_ : string;
}

type outcome = {
  line : string;
  code : string option;
  cached : bool;
  payload : string option;
}

let create ?cache_dir ?(cache_capacity = 4096) ?jobs () =
  let jobs_ = Par.Jobs.resolve jobs in
  { pool = (if jobs_ > 1 then Some (Par.Pool.create ~jobs:jobs_) else None);
    jobs_;
    cache = Cache.create ?dir:cache_dir ~capacity:cache_capacity ();
    server_ = Version.server () }

let jobs t = t.jobs_

let server t = t.server_

let shutdown t =
  match t.pool with
  | Some pool -> Par.Pool.shutdown pool
  | None -> ()

let mc_json (mc : Dacmodel.Montecarlo.t) =
  Json.Obj
    [ ("trials", Json.Num (float_of_int mc.Dacmodel.Montecarlo.trials));
      ("mean_inl", Json.Num mc.Dacmodel.Montecarlo.mean_inl);
      ("mean_dnl", Json.Num mc.Dacmodel.Montecarlo.mean_dnl);
      ("p95_inl", Json.Num mc.Dacmodel.Montecarlo.p95_inl);
      ("p95_dnl", Json.Num mc.Dacmodel.Montecarlo.p95_dnl);
      ("max_inl", Json.Num mc.Dacmodel.Montecarlo.max_inl);
      ("max_dnl", Json.Num mc.Dacmodel.Montecarlo.max_dnl);
      ("yield", Json.Num mc.Dacmodel.Montecarlo.yield) ]

(* The payload is serialised once, here, and from then on only stored and
   spliced as bytes (Cache, Response) — the byte-identity contract. *)
let payload_of record mc =
  Json.to_string
    (Json.Obj
       (("record", Qor.Record.to_json record)
        :: (match mc with Some m -> [ ("mc", mc_json m) ] | None -> [])))

(* Flow runs inside a batch task use jobs = 1: concurrency comes from
   running the batch's requests side by side on the pool, and results
   stay bitwise-identical to a serial server. *)
let run_one (req : Request.t) =
  let attrs =
    [ ("style", Telemetry.Span.Str (Ccplace.Style.name req.Request.style));
      ("bits", Telemetry.Span.Int req.Request.bits);
      ("trials", Telemetry.Span.Int req.Request.trials) ]
    @ (match req.Request.id with
       | Some id -> [ ("request_id", Telemetry.Span.Str id) ]
       | None -> [])
  in
  Telemetry.Span.with_ ~name:"serve.request" ~attrs (fun () ->
      let r =
        Ccdac.Flow.run ~tech:req.Request.tech ~bits:req.Request.bits
          req.Request.style
      in
      let record = Qor.Record.of_result r in
      let mc =
        if req.Request.trials > 0 then
          Some
            (Dacmodel.Montecarlo.run req.Request.tech ~seed:req.Request.seed
               ~jobs:1 ~trials:req.Request.trials r.Ccdac.Flow.placement)
        else None
      in
      payload_of record mc)

(* Extract a best-effort correlation id so even invalid requests echo the
   caller's [id] back. *)
let id_of_line line =
  match Json.parse line with
  | Ok json -> begin
      match Json.member "id" json with
      | Some (Json.Str s) -> Some s
      | Some _ | None -> None
    end
  | Error _ -> None

type parsed =
  | Bad of Request.error * string option  (* error, echoed id *)
  | Hit of Request.t * string             (* cached payload *)
  | Miss of Request.t * string            (* cache key *)

let classify t line =
  match Request.of_line line with
  | Error e -> Bad (e, id_of_line line)
  | Ok req ->
    let key =
      Cache.key ~tech:req.Request.tech ~style:req.Request.style
        ~bits:req.Request.bits ~seed:req.Request.seed
        ~trials:req.Request.trials
    in
    (match Cache.find t.cache key with
     | Some payload -> Hit (req, payload)
     | None -> Miss (req, key))

let error_of_task (te : Par.Pool.task_error) =
  match te.Par.Pool.exn with
  | Verify.Engine.Rejected { diagnostics; _ } ->
    let errors = Diag.errors diagnostics in
    { Request.code = "verify-rejected";
      detail =
        Printf.sprintf "%d verify error%s" (List.length errors)
          (if List.length errors = 1 then "" else "s");
      rules = Diag.rule_ids errors }
  | exn ->
    { Request.code = "internal-error";
      detail = Printexc.to_string exn;
      rules = [] }

let handle_batch t lines =
  let t0 = Telemetry.Clock.now_ns () in
  let parsed = List.map (classify t) lines in
  let misses =
    List.filter_map (function Miss (req, _) -> Some req | _ -> None) parsed
  in
  List.iter
    (function
      | Bad (e, _) -> Telemetry.Metrics.incr ~label:e.Request.code "serve/rejected_total"
      | Hit _ ->
        Telemetry.Metrics.incr "serve/accepted_total";
        Telemetry.Metrics.incr "serve/cache_hits_total"
      | Miss _ ->
        Telemetry.Metrics.incr "serve/accepted_total";
        Telemetry.Metrics.incr "serve/cache_misses_total")
    parsed;
  Telemetry.Metrics.set "serve/in_flight" (float_of_int (List.length misses));
  let computed =
    match misses with
    | [] -> [||]
    | _ ->
      Array.of_list
        (match t.pool with
         | Some pool -> Par.Pool.map pool run_one misses
         | None -> Par.Pool.map_list ~jobs:1 run_one misses)
  in
  Telemetry.Metrics.set "serve/in_flight" 0.;
  let finish () =
    let elapsed_ms = Telemetry.Clock.(to_s (since_ns t0)) *. 1000. in
    Telemetry.Metrics.observe "serve/request_us"
      Telemetry.Clock.(to_us (since_ns t0));
    elapsed_ms
  in
  let next_miss = ref 0 in
  let outcomes =
    List.map
      (function
        | Bad (e, id) ->
          let _ = finish () in
          { line = Response.error ?id ~server:t.server_ e ();
            code = Some e.Request.code;
            cached = false;
            payload = None }
        | Hit (req, payload) ->
          let elapsed_ms = finish () in
          { line =
              Response.ok ?id:req.Request.id ~server:t.server_ ~cached:true
                ~elapsed_ms ~payload ();
            code = None;
            cached = true;
            payload = Some payload }
        | Miss (req, key) ->
          let slot = computed.(!next_miss) in
          incr next_miss;
          let elapsed_ms = finish () in
          (match slot with
           | Ok payload ->
             Cache.store t.cache key payload;
             { line =
                 Response.ok ?id:req.Request.id ~server:t.server_
                   ~cached:false ~elapsed_ms ~payload ();
               code = None;
               cached = false;
               payload = Some payload }
           | Error te ->
             let e = error_of_task te in
             Telemetry.Metrics.incr ~label:e.Request.code
               "serve/rejected_total";
             { line = Response.error ?id:req.Request.id ~server:t.server_ e ();
               code = Some e.Request.code;
               cached = false;
               payload = None }))
      parsed
  in
  Telemetry.Metrics.set "serve/cache_entries"
    (float_of_int (Cache.length t.cache));
  outcomes

let handle_line t line =
  match handle_batch t [ line ] with
  | [ outcome ] -> outcome
  | _ -> failwith "Serve.Engine.handle_line: one line in, one outcome out"
