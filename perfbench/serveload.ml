(* The serve-mix workload: a closed loop over two connections, one
   request in flight on each, against a `ccgen serve` daemon started
   with its default flags.  About 80% of requests are warm (Zipf over a
   prefilled 12-key hot set); the rest are cold, each with a fresh
   unit_cap override, and one cold request in four also asks for
   Monte-Carlo trials with a fresh seed. *)

open Common

(* The hot set in Zipf rank order, bit widths interleaved so that the
   cold requests, drawn with the same weights, mix sizes evenly. *)
let hot =
  [| ("spiral", 8); ("bc", 8); ("spiral", 10); ("chessboard", 8);
     ("rowwise", 8); ("bc", 10); ("spiral", 6); ("chessboard", 10);
     ("rowwise", 10); ("bc", 6); ("chessboard", 6); ("rowwise", 6) |]

let zipf_weight rank = 1. /. (float_of_int (rank + 1) ** 1.1)

(* Requests come in blocks of [block], [cold_per_block] of them cold
   at seeded positions within each block.  Warm keys follow the Zipf
   weights, and cold (key, Monte-Carlo) pairs the same weights with one
   in [mc_every] asking for trials, both through a smooth weighted
   round robin, so that every run of a given length does the same mix
   of work and the seed only sets its order.  A fixed warm/cold cycle
   would instead lock the two connections into a seed-dependent rhythm
   of which one waits behind the other. *)
let block = 20

let cold_per_block = 4

let mc_every = 4

(* ccgen serve's default --cache-capacity: the memory tier evicts its
   oldest entry first, and the oldest are the prefilled hot keys. *)
let memory_tier = 4096

let connections = 2

(* The daemon's peak RSS is read once this many requests are answered:
   its result cache grows with every cold request, so a reading at the
   end of a fixed-time phase would grow whenever the server got faster. *)
let rss_after = 2000

type request = {
  id : string;
  line : string;
  key : int;            (* index into [hot] *)
  cold : bool;
  trials : int;
}

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  mutable inflight : (request * int64 * int) option;   (* sent at, calibration *)
}

type t = {
  pid : int;
  daemon_out : In_channel.t;
  conns : conn array;
  hot_payloads : string array;
  hot_problems : string option array;  (* a hot payload against the reference *)
  next : unit -> request option;   (* None: the cold-key budget is spent *)
  trace : bool;
  seed : int;
}

(* ---- line I/O on raw descriptors ---- *)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Complete lines buffered so far, leaving any partial tail. *)
let take_lines c =
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
    String.split_on_char '\n' (String.sub s 0 i)

let chunk = Bytes.create 65536

let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n -> Buffer.add_subbytes c.pending chunk 0 n

let rec read_line c =
  match take_lines c with
  | [ line ] -> line
  | [] ->
    fill c;
    read_line c
  | _ -> failwith "more than one response for one request"

(* ---- responses ---- *)

type response = {
  status : string;
  rid : string;
  cached : bool;
  elapsed_ms : float;
  payload : string;   (* the spliced result bytes; the whole line on errors *)
}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The envelope is parsed without the payload, which stays raw bytes:
   a warm payload must equal the prefilled one byte for byte. *)
let parse_response line =
  let marker = ",\"result\":" in
  let head, payload =
    match find_sub line marker with
    | Some i ->
      ( String.sub line 0 i ^ "}",
        String.sub line (i + String.length marker)
          (String.length line - i - String.length marker - 1) )
    | None -> (line, line)
  in
  match Json.parse head with
  | Error e -> failwith ("unparsable response: " ^ e)
  | Ok j ->
    let str k = Option.value (Option.bind (Json.member k j) Json.to_str) ~default:"" in
    { status = str "status";
      rid = str "id";
      cached = Json.member "cached" j = Some (Json.Bool true);
      elapsed_ms =
        Option.value (Option.bind (Json.member "elapsed_ms" j) Json.to_float)
          ~default:Float.nan;
      payload }

(* ---- request generation ---- *)

let generator ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let weight r = int_of_float (Float.round (100. *. zipf_weight r)) in
  let keys = List.init (Array.length hot) Fun.id in
  let warm_key = weighted_cycle ~seed (List.map (fun k -> (k, weight k)) keys) in
  let cold_key =
    weighted_cycle ~seed:(seed + 1)
      (List.concat_map
         (fun k -> [ ((k, true), weight k); ((k, false), (mc_every - 1) * weight k) ])
         keys)
  in
  (* the cold flags of the current block, consumed front to back *)
  let pending = ref [] in
  let next_is_cold () =
    if !pending = [] then begin
      let flags = Array.init block (fun i -> i < cold_per_block) in
      for i = block - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = flags.(i) in
        flags.(i) <- flags.(j);
        flags.(j) <- x
      done;
      pending := Array.to_list flags
    end;
    match !pending with
    | cold :: rest ->
      pending := rest;
      cold
    | [] -> assert false
  in
  let used_caps = Hashtbl.create 1024 and used_seeds = Hashtbl.create 256 in
  let rec fresh tbl draw =
    let v = draw () in
    if Hashtbl.mem tbl v then fresh tbl draw
    else begin
      Hashtbl.add tbl v ();
      v
    end
  in
  let base_cap = Layers.tech.Tech.Process.unit_cap in
  let issued = ref 0 and cold_issued = ref 0 in
  let next () =
    let cold = next_is_cold () in
    if cold && !cold_issued + Array.length hot >= memory_tier then None
    else begin
      incr issued;
      if not cold then
        let key = warm_key () in
        let style, bits = hot.(key) in
        let id = Printf.sprintf "w%d" !issued in
        Some
          { id; key; cold; trials = 0;
            line = Json.to_string (Serve.Request.to_json ~id ~style ~bits ()) }
      else begin
        incr cold_issued;
        let key, mc = cold_key () in
        let style, bits = hot.(key) in
        let id = Printf.sprintf "c%d" !issued in
        (* a unit_cap within +-10% of the preset, never the preset *)
        let step =
          fresh used_caps (fun () ->
              let k = Random.State.int rng 20000 - 10000 in
              if k = 0 then 1 else k)
        in
        let overrides = [ ("unit_cap", base_cap *. (1. +. (1e-5 *. float_of_int step))) ] in
        let trials, seed =
          if mc then
            (Layers.mc_trials, Some (fresh used_seeds (fun () -> Random.State.int rng 1_000_000_000)))
          else (0, None)
        in
        let trials_opt = if trials > 0 then Some trials else None in
        Some
          { id; key; cold; trials;
            line =
              Json.to_string
                (Serve.Request.to_json ~id ?seed ?trials:trials_opt ~overrides
                   ~style ~bits ()) }
      end
    end
  in
  next

(* ---- set-up and teardown ---- *)

let spawn_daemon ~ccgen ~socket =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process ccgen [| ccgen; "serve"; "--socket"; socket |] devnull
      out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr out_r in
  (match In_channel.input_line out with
   | Some l when String.starts_with ~prefix:"ccgen serve: listening" l -> ()
   | Some l -> failwith ("unexpected daemon banner: " ^ l)
   | None -> failwith "daemon exited before listening");
  (pid, out)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; pending = Buffer.create 4096; inflight = None }

(* A prefilled payload checked against the committed reference: every
   warm request of its key must reproduce it byte for byte, so this
   checks them all. *)
let hot_problem refs line payload =
  match Serve.Request.of_line line, Json.parse payload with
  | Error e, _ -> Some ("hot request does not parse: " ^ e.Serve.Request.detail)
  | _, Error _ -> Some ("hot payload is not JSON: " ^ payload)
  | Ok req, Ok j ->
    let label = Layers.label req.Serve.Request.style req.Serve.Request.bits in
    (match
       List.assoc_opt label refs,
       Option.map Qor.Record.of_json (Json.member "record" j)
     with
     | None, _ -> Some ("no reference for " ^ label)
     | _, (None | Some (Error _)) -> Some "hot payload carries no record"
     | Some exp, Some (Ok r) ->
       if r.Qor.Record.label <> label then Some ("hot payload is not for " ^ label)
       else List.nth_opt (Layers.record_mismatches exp r) 0)

let setup ~seed ~trace ~ccgen ~socket ~reference =
  let refs = Layers.load_reference reference in
  let pid, daemon_out = spawn_daemon ~ccgen ~socket in
  let conns = Array.init connections (fun _ -> connect socket) in
  let prefill =
    Array.mapi
      (fun i (style, bits) ->
         let line =
           Json.to_string
             (Serve.Request.to_json ~id:(Printf.sprintf "h%d" i) ~style ~bits ())
         in
         write_all conns.(0).fd (line ^ "\n");
         let payload = (parse_response (read_line conns.(0))).payload in
         (payload, hot_problem refs line payload))
      hot
  in
  { pid; daemon_out; conns; hot_payloads = Array.map fst prefill;
    hot_problems = Array.map snd prefill; next = generator ~seed; trace; seed }

(* SIGTERM drains the daemon; its last stdout line states what it
   served. *)
let stop_daemon t =
  Array.iter (fun c -> Unix.close c.fd) t.conns;
  Unix.kill t.pid Sys.sigterm;
  let _, status = Unix.waitpid [] t.pid in
  let lines = In_channel.input_lines t.daemon_out in
  In_channel.close t.daemon_out;
  (status, lines)

let teardown t = ignore (stop_daemon t)

(* ---- checks ---- *)

let volatile =
  [ "stage_s"; "place_route_s"; "stage_alloc_mb"; "alloc_mb_total";
    "peak_heap_mb"; "major_collections"; "provenance" ]

(* A record's JSON without the timing, memory and provenance fields
   that differ between two computations of the same request. *)
let stable_record = function
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | j -> Json.to_string j

let mc_json (mc : Dacmodel.Montecarlo.t) =
  Json.to_string
    (Json.Obj
       [ ("trials", Json.Num (float_of_int mc.Dacmodel.Montecarlo.trials));
         ("mean_inl", Json.Num mc.Dacmodel.Montecarlo.mean_inl);
         ("mean_dnl", Json.Num mc.Dacmodel.Montecarlo.mean_dnl);
         ("p95_inl", Json.Num mc.Dacmodel.Montecarlo.p95_inl);
         ("p95_dnl", Json.Num mc.Dacmodel.Montecarlo.p95_dnl);
         ("max_inl", Json.Num mc.Dacmodel.Montecarlo.max_inl);
         ("max_dnl", Json.Num mc.Dacmodel.Montecarlo.max_dnl);
         ("yield", Json.Num mc.Dacmodel.Montecarlo.yield) ])

(* What every cold payload must carry: the label and tech hash of its
   own request, and a Monte-Carlo summary exactly when it asked for one. *)
let cold_problem (req : request) payload =
  match Serve.Request.of_line req.line, Json.parse payload with
  | Error e, _ -> Some ("request does not parse in-process: " ^ e.Serve.Request.detail)
  | _, Error e -> Some ("payload does not parse: " ^ e)
  | Ok parsed, Ok j ->
    let record k =
      Option.bind (Json.member "record" j) (fun r ->
          Option.bind (Json.member k r) Json.to_str)
    in
    let label =
      Qor.Record.label
        ~style:(Ccplace.Style.name parsed.Serve.Request.style)
        ~bits:parsed.Serve.Request.bits
    in
    if record "label" <> Some label then Some ("payload is not for " ^ label)
    else if record "tech_hash" <> Some (Qor.Record.tech_hash parsed.Serve.Request.tech)
    then Some "payload carries another tech hash"
    else if Option.is_some (Json.member "mc" j) <> (req.trials > 0) then
      Some "Monte-Carlo summary does not match the requested trials"
    else None

(* Recompute one cold request in-process, through the benchmark's layer
   composition, and compare with what the daemon answered. *)
let recheck tr acc ~op (req : request) payload =
  match Serve.Request.of_line req.line with
  | Error e -> [ "request does not parse in-process: " ^ e.Serve.Request.detail ]
  | Ok parsed ->
    let style = parsed.Serve.Request.style and bits = parsed.Serve.Request.bits in
    let tech = parsed.Serve.Request.tech in
    let traced, mismatches = Layers.measured_op tr acc ~op ~tech ~bits style in
    let mc, record =
      Layers.probes tr acc ~op ~tech
        ~mc_seed:(if req.trials > 0 then parsed.Serve.Request.seed else op)
        ~mc_trials:(if req.trials > 0 then req.trials else Layers.mc_trials)
        traced.Layers.result
    in
    let daemon =
      match Json.parse payload with
      | Ok j -> j
      | Error e -> failwith ("cold payload does not parse: " ^ e)
    in
    let member k = Option.value (Json.member k daemon) ~default:Json.Null in
    mismatches
    @ (if stable_record (member "record") = stable_record (Qor.Record.to_json record)
       then []
       else [ "cold record differs from the in-process recomputation" ])
    @
    if req.trials = 0 || Json.to_string (member "mc") = mc_json mc then []
    else [ "cold mc summary differs from the in-process recomputation" ]

(* ---- the timed phase ---- *)

type observed = {
  req : request;
  done_ms : float;      (* completion, ms into the timed phase *)
  latency_ms : float;
  cal : int;            (* the last host-speed calibration before it *)
  resp : response;
}

(* Every [calibrate_every_ms] the client stops sending, lets both
   requests in flight finish, and calibrates the host speed while the
   daemon, pinned to the same CPU, is idle. *)
let run t ~seconds ~spans_path =
  let fails = failures () in
  let sp = speed () in
  let observed = ref [] and attempted = ref 0 and budget_spent = ref false in
  let answered = ref 0 and rss = ref None in
  let read_rss () = rss := Some (peak_rss_mb (string_of_int t.pid), !answered) in
  let send c =
    match t.next () with
    | None -> budget_spent := true
    | Some req ->
      incr attempted;
      c.inflight <- Some (req, Clock.now_ns (), latest sp);
      write_all c.fd (req.line ^ "\n")
  in
  let t_start = Clock.now_ns () in
  let stopping () = ms_since t_start >= 1e3 *. seconds || !budget_spent in
  let busy () = Array.exists (fun c -> Option.is_some c.inflight) t.conns in
  let restart () =
    calibrate sp;
    Array.iter (fun c -> if not (stopping ()) then send c) t.conns
  in
  restart ();
  while busy () do
    let fds =
      Array.to_list t.conns
      |> List.filter (fun c -> Option.is_some c.inflight)
      |> List.map (fun c -> c.fd)
    in
    let readable, _, _ = Unix.select fds [] [] 5.0 in
    List.iter
      (fun fd ->
         let c = List.find (fun c -> c.fd = fd) (Array.to_list t.conns) in
         fill c;
         let now = Clock.now_ns () in
         match take_lines c, c.inflight with
         | [], _ -> ()
         | [ line ], Some (req, t0, cal) ->
           c.inflight <- None;
           observed :=
             { req; done_ms = ms_between t_start now;
               latency_ms = ms_between t0 now; cal; resp = parse_response line }
             :: !observed;
           incr answered;
           if !answered = rss_after then read_rss ();
           if not (stopping () || calibration_due sp) then send c
         | _ -> failwith "unexpected response on an idle connection")
      readable;
    if not (busy () || stopping ()) then restart ()
  done;
  let sc = scale sp in
  let elapsed_s = ms_since t_start /. 1e3 in
  print_windows ~elapsed_s (List.map (fun o -> o.done_ms) !observed);
  print_scale sc;
  if Option.is_none !rss then read_rss ();
  let rss_mb, rss_at = Option.get !rss in
  let status, daemon_lines = stop_daemon t in
  if status <> Unix.WEXITED 0 then fail fails "daemon did not exit cleanly";
  (match List.rev daemon_lines with
   | last :: _ ->
     (try
        Scanf.sscanf last
          "ccgen serve: drained (served %d, cache hits %d, errors %d, busy %d)"
          (fun _ _ errors busy ->
             if errors + busy > 0 then
               fail fails
                 (Printf.sprintf "daemon reports %d errors, %d busy" errors busy))
      with Scanf.Scan_failure _ | End_of_file -> fail fails ("daemon said: " ^ last))
   | [] -> fail fails "daemon printed no drain summary");
  if !budget_spent then
    Printf.printf
      "  NOTE: cold keys reached the %d-entry memory tier less the hot set; \
       the timed phase stopped after %.2f s instead of %.0f s\n"
      memory_tier elapsed_s seconds;
  (* every response: status, echo and cache state; a warm one must be
     the prefilled payload byte for byte, itself checked against the
     reference *)
  let sample_rng = Random.State.make [| t.seed; 0x5a3 |] in
  let k = if t.trace then 12 else 4 in
  (* two reservoirs, so Monte-Carlo requests are always in the sample *)
  let reservoirs = [| Array.make k None; Array.make k None |] and seen = [| 0; 0 |] in
  let ok = ref 0 in
  List.iter
    (fun o ->
       let r = o.resp and req = o.req in
       let problem =
         if r.status <> "ok" then Some (r.status ^ ": " ^ r.payload)
         else if r.rid <> req.id then Some ("id " ^ r.rid ^ " for " ^ req.id)
         else if req.cold && r.cached then Some "cold request answered from cache"
         else if (not req.cold) && not r.cached then
           Some "warm request missed the cache"
         else if not req.cold then
           if r.payload = t.hot_payloads.(req.key) then t.hot_problems.(req.key)
           else Some "warm payload differs from the prefilled one"
         else cold_problem req r.payload
       in
       match problem with
       | Some p -> fail fails (req.id ^ ": " ^ p)
       | None ->
         incr ok;
         if req.cold then begin
           let b = if req.trials > 0 then 1 else 0 in
           let i = seen.(b) in
           seen.(b) <- i + 1;
           let slot = if i < k then i else Random.State.int sample_rng (i + 1) in
           if slot < k then reservoirs.(b).(slot) <- Some (req, r.payload)
         end)
    (List.rev !observed);
  let tr = tracer () and acc = Layers.acc () in
  let op = ref 0 in
  Array.iter
    (Array.iter (function
       | None -> ()
       | Some (req, payload) ->
         (match recheck tr acc ~op:!op req payload with
          | [] -> ()
          | m :: _ -> fail fails (req.id ^ ": " ^ m)
          | exception e -> fail fails (req.id ^ ": " ^ Printexc.to_string e));
         incr op))
    reservoirs;
  (* every answered request is timed; the failed ones are also counted
     in [failed] *)
  (* latencies at the reference host speed *)
  let lat f =
    List.filter_map
      (fun o -> if f o then Some (scaled sc o.cal o.latency_ms) else None)
      !observed
  in
  let all = lat (fun _ -> true) in
  let warm = lat (fun o -> not o.req.cold) and cold = lat (fun o -> o.req.cold) in
  let raw_cold =
    List.filter_map (fun o -> if o.req.cold then Some o.latency_ms else None) !observed
  in
  print_ladder "warm" warm;
  print_ladder "cold" cold;
  (* reported, not gated: the warm median is a socket round trip that
     the host's scheduling moves by 20-30% from run to run, and the
     tails move with the host's bursts of slowness *)
  List.iter print_metric
    [ metric ~samples:!ok ~note:"wall time, not scaled" "raw_ops_per_s" "1/s"
        (float_of_int !ok /. sc.raw_s);
      percentile_metric ~name:"raw_flow_p50_ms" ~q:0.5 raw_cold;
      percentile_metric ~name:"warm_p50_ms" ~q:0.5 warm;
      percentile_metric ~name:"warm_p99_ms" ~q:0.99 warm;
      percentile_metric ~name:"cold_p50_ms" ~q:0.5 cold;
      percentile_metric ~name:"cold_p99_ms" ~q:0.99 cold ];
  Printf.printf "  %d requests: %d warm, %d cold (%d with %d MC trials), %d in-process rechecks\n"
    (List.length all) (List.length warm) (List.length cold)
    (List.length (List.filter (fun o -> o.req.trials > 0) !observed))
    Layers.mc_trials !op;
  let metrics =
    if t.trace then begin
      (* the serve layer as the client sees it, then its parse and cache
         lookup as standalone calls on every request line of the run *)
      List.iter
        (fun o ->
           let r = o.resp in
           Layers.add acc "serve.errors" (if r.status = "error" then 1. else 0.);
           Layers.add acc "serve.busy" (if r.status = "busy" then 1. else 0.);
           if r.status = "ok" then begin
             Layers.add acc "serve.engine_ms" r.elapsed_ms;
             Layers.add acc "serve.wait_ms" (o.latency_ms -. r.elapsed_ms);
             Layers.add acc "serve.hit_ratio" (if r.cached then 1. else 0.)
           end)
        !observed;
      let cache = Serve.Cache.create ~capacity:memory_tier () in
      List.iter
        (fun o ->
           let payload = if o.req.cold then o.req.line else t.hot_payloads.(o.req.key) in
           Layers.serve_calls acc ~cache o.req.line payload)
        (List.rev !observed);
      write_spans tr spans_path;
      Layers.layer_metrics acc
    end
    else
      [ metric ~samples:!ok
          ~note:(Printf.sprintf "%d ok requests in %.2f s at the reference speed"
                   !ok sc.scaled_s)
          "ops_per_s" "1/s" (float_of_int !ok /. sc.scaled_s);
        percentile_metric ~name:"flow_p50_ms" ~q:0.5 cold;
        metric
          ~note:(Printf.sprintf "VmHWM of the daemon after %d requests" rss_at)
          "peak_rss_mb" "MB" rss_mb ]
  in
  { attempted = !attempted; failed = fails.count; failures = fails.reasons; metrics }
