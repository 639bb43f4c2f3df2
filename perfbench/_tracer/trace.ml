(* In-process replay of a recorded request stream, for the benchmark's
   per-layer breakdown.

     trace.exe REPLAY OUT

   REPLAY holds two lines per request: a header "PHASE PROGRAM ANALYSIS CMD"
   and the request line exactly as it was sent to the server. Every request
   is replayed twice, into two sessions that see the same stream:

   - once through [Server.handle_line], the server's own router, timing the
     call (the server's handling time without socket I/O). The reply lines
     are written to OUT.replies for checking;
   - once through a mirror of that router built from the layers' public
     functions, with a span around each call. Spans carry a name, start,
     end, parent and request id; they stay in memory and are written to OUT
     as JSON when the replay ends.

   Engine-internal phases have no span of their own: the solve and the
   result projection are placed inside the outcome span as derived children
   of the lengths the engine reports (snapshot [time_s], and [o_time] minus
   it), and the client metrics as a derived child of a re-measured
   [Metrics.compute]. Everything else that is not covered by a child span is
   the parent's self time; the root's self time is [unattributed]. Shadow
   measurements (the re-measured metrics, a fresh solve of every updated
   revision) run after the request's root span has closed. *)

module Json = Csc_obs.Json
module Snapshot = Csc_obs.Snapshot
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Inc = Csc_pta.Inc
module Ir = Csc_ir.Ir

let now = Unix.gettimeofday
let t_origin = now ()
let max_mem_bytes = 8192 * 1024 * 1024

(* ---------------------------------------------------------------- replay *)

type entry = {
  phase : string;
  kind : string list;  (* program, analysis, command *)
  line : string;
}

let read_replay file =
  let ic = open_in_bin file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | header -> (
      let line = input_line ic in
      match String.split_on_char ' ' header with
      | phase :: kind -> go ({ phase; kind; line } :: acc)
      | [] -> failwith "empty replay header")
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* ----------------------------------------------------------------- spans *)

type span = {
  idx : int;
  req : int;
  mutable name : string;
  start : float;
  mutable stop : float;
  parent : int;
  mutable alloc : float;  (* bytes allocated while open *)
  derived : bool;
}

let spans : span list ref = ref []
let n_spans = ref 0
let stack : span list ref = ref []
let cur_req = ref 0

let add ~name ~start ~stop ~parent ~derived =
  let s =
    { idx = !n_spans; req = !cur_req; name; start; stop; parent; alloc = 0.;
      derived }
  in
  incr n_spans;
  spans := s :: !spans;
  s

let open_span name =
  let parent = match !stack with p :: _ -> p.idx | [] -> -1 in
  let s = add ~name ~start:(now ()) ~stop:0. ~parent ~derived:false in
  s.alloc <- Gc.allocated_bytes ();
  stack := s :: !stack;
  s

let close_span s =
  s.stop <- now ();
  s.alloc <- Gc.allocated_bytes () -. s.alloc;
  stack := List.tl !stack

let with_span name f =
  let s = open_span name in
  match f () with
  | v ->
    close_span s;
    v
  | exception e ->
    close_span s;
    raise e

(* derived children are laid end to end from the parent's start and
   clipped to it, so they never overlap each other or leave the parent *)
let derive (parent : span) (parts : (string * float) list) =
  ignore
    (List.fold_left
       (fun t (name, d) ->
         let stop = Float.min parent.stop (t +. Float.max 0. d) in
         if stop > t then
           ignore (add ~name ~start:t ~stop ~parent:parent.idx ~derived:true);
         stop)
       parent.start parts)

(* ----------------------------------------------------------------- facts *)

let facts : (string * Json.t) list ref = ref []
let post : (unit -> unit) list ref = ref []
let fact k v = facts := (k, v) :: !facts
let later f = post := f :: !post

let ok_exn = function Ok v -> v | Error m -> failwith m

let str k j = Option.bind (Json.member k j) Json.get_string

let counter snap name =
  match Snapshot.counter_value snap name with Some v -> v | None -> 0

let solve_facts (parent : span) (spec : Run.spec) p (o : Run.outcome) =
  later (fun () ->
      match (o.Run.o_result, o.Run.o_snapshot) with
      | Some r, Some snap ->
        let t0 = now () in
        ignore (Csc_clients.Metrics.compute p r);
        let metrics_s = now () -. t0 in
        let time_s =
          Option.value ~default:o.Run.o_time (Snapshot.gauge_value snap "time_s")
        in
        if Run.is_datalog spec.Run.sp_analysis then begin
          derive parent
            [ ("datalog.solve", o.Run.o_time); ("clients.metrics", metrics_s) ];
          fact "derived" (Json.Int (counter snap "derived"))
        end
        else
          derive parent
            [ ("pta.solve", time_s);
              ("pta.project", o.Run.o_time -. time_s);
              ("clients.metrics", metrics_s) ];
        fact "time_s" (Json.Float time_s);
        fact "o_time" (Json.Float o.Run.o_time);
        fact "metrics_s" (Json.Float metrics_s);
        fact "shortcuts" (Json.Int o.Run.o_shortcuts);
        fact "load_shortcuts"
          (Json.Int
             (Option.value ~default:0
                (Snapshot.counter_value ~labels:[ ("pattern", "load") ] snap
                   "csc_shortcuts")));
        List.iter
          (fun c -> fact c (Json.Int (counter snap c)))
          [ "propagated"; "pfg_edges"; "wl_pushes"; "ptrs" ];
        fact "heap_words_peak"
          (Json.Float
             (Option.value ~default:0.
                (Snapshot.gauge_value snap "heap_words_peak")))
      | _ -> failwith "analysis timed out")

(* ----------------------------------------------------- mirrored handler *)

(* digest -> source of every program loaded so far (update bases) *)
let sources : (string, string) Hashtbl.t = Hashtbl.create 64

let load sess ~name src =
  let s = open_span "driver.load" in
  let p, d = ok_exn (Session.load_source sess ~name src) in
  close_span s;
  if not (Hashtbl.mem sources d) then begin
    (* first sight of this revision: the call compiled it *)
    s.name <- "lang.compile";
    Hashtbl.replace sources d src;
    later (fun () -> fact "ir_stmts" (Json.Int (Ir.stats p).Ir.n_stmts))
  end;
  (p, d)

let resolve sess req =
  match (str "program" req, str "source" req) with
  | Some name, _ ->
    let src =
      with_span "workloads.source" (fun () -> Csc_workloads.Suite.source name)
    in
    load sess ~name src
  | None, Some src ->
    load sess ~name:(Option.value ~default:"<inline>" (str "name" req)) src
  | None, None -> failwith "request names no program"

let outcome sess ~digest spec p =
  let s = open_span "driver.outcome" in
  let o, cached = Session.outcome sess ~digest spec p in
  close_span s;
  fact "cached" (Json.Bool cached);
  if not cached then solve_facts s spec p o;
  (o, cached)

let result_of (o : Run.outcome) =
  match o.Run.o_result with Some r -> r | None -> failwith "timed out"

let envelope fields =
  Json.to_string (Json.with_schema (("ok", Json.Bool true) :: fields))

let diagnostics_json p ds =
  Json.parse_exn (Csc_checks.Diagnostic.render_json p ds)

let edit_of e =
  let f k = Option.get (str k e) in
  match str "op" e with
  | Some "replace" ->
    Inc.Replace_method { cls = f "class"; meth = f "method"; body = f "body" }
  | Some "add" -> Inc.Add_method { cls = f "class"; meth_src = f "src" }
  | Some "remove" -> Inc.Remove_method { cls = f "class"; meth = f "method" }
  | _ -> failwith "bad edit"

let handle sess line =
  let req, spec, cmd =
    with_span "server.parse" (fun () ->
        let req = Json.parse_exn line in
        let a =
          ok_exn (Run.analysis_of_string (Option.get (str "analysis" req)))
        in
        (req, Run.spec a, Option.get (str "cmd" req)))
  in
  match cmd with
  | "update" ->
    let digest = Option.get (str "digest" req) in
    let edits =
      List.map edit_of
        (Option.get (Option.bind (Json.member "edits" req) Json.get_list))
    in
    let src =
      with_span "inc.patch" (fun () ->
          ok_exn (Inc.apply_edits (Hashtbl.find sources digest) edits))
    in
    let p, _ = load sess ~name:"<update>" src in
    let s = open_span "inc.update" in
    let u = ok_exn (Session.update sess ~digest ~source:src spec) in
    close_span s;
    let o = u.Session.up_outcome in
    let i = u.Session.up_info in
    fact "cached" (Json.Bool u.Session.up_cached);
    if not u.Session.up_cached then solve_facts s spec p o;
    fact "inc_mode"
      (Json.Str (match i.Inc.i_mode with `Incremental -> "incremental"
                                     | `Fresh -> "fresh"));
    fact "dirty_methods" (Json.Int i.Inc.i_dirty_methods);
    fact "preloaded" (Json.Int i.Inc.i_preloaded);
    fact "retracted" (Json.Int i.Inc.i_retracted);
    fact "reuse_pct" (Json.Float (100. *. i.Inc.i_reuse));
    later (fun () ->
        let t0 = now () in
        ignore (Run.run_spec spec p);
        fact "fresh_s" (Json.Float (now () -. t0)));
    with_span "driver.render" (fun () ->
        envelope
          [ ( "result",
              Json.Obj
                [ ("digest", Json.Str u.Session.up_digest);
                  ("inc", Json.Obj (Inc.info_json i));
                  ("outcome", Csc_driver.Report.outcome_json o) ] ) ])
  | _ -> (
    let p, digest = resolve sess req in
    let o, _ = outcome sess ~digest spec p in
    let r = result_of o in
    let analysis = ("analysis", Json.Str o.Run.o_analysis) in
    match cmd with
    | "analyze" ->
      with_span "driver.render" (fun () ->
          envelope
            [ ("digest", Json.Str digest);
              ("result", Csc_driver.Report.outcome_json o) ])
    | "check" ->
      let ds =
        with_span "checks.check" (fun () -> Csc_checks.Checks.run_all p r)
      in
      fact "diagnostics" (Json.Int (List.length ds));
      with_span "driver.render" (fun () ->
          envelope
            [ ( "result",
                Json.Obj
                  [ analysis; ("count", Json.Int (List.length ds));
                    ("diagnostics", diagnostics_json p ds) ] ) ])
    | "taint" ->
      let ds =
        with_span "taint.taint" (fun () ->
            Csc_taint.Taint.diagnostics p (Csc_taint.Taint.analyze p r))
      in
      fact "reports" (Json.Int (List.length ds));
      with_span "driver.render" (fun () ->
          envelope
            [ ( "result",
                Json.Obj
                  [ analysis; ("count", Json.Int (List.length ds));
                    ("diagnostics", diagnostics_json p ds) ] ) ])
    | "callgraph" ->
      with_span "driver.render" (fun () ->
          envelope
            [ ( "result",
                Json.Obj
                  [ analysis;
                    ("dot", Json.Str (Csc_driver.Export.callgraph_dot p r)) ]
              ) ])
    | c -> failwith ("no mirror for command " ^ c))

(* ----------------------------------------------------------------- passes *)

(* Both replays run in one loop, request by request and alternating which
   goes first, so that the two timings of a request see the same machine
   state: on a host whose speed drifts, that pairing is what keeps
   [handle_s] and the traced latency comparable. *)
let replay entries replies_file =
  let srv = Csc_server.Server.create ~max_mem_bytes () in
  let sess = Session.create ~max_mem_bytes () in
  let oc = open_out_bin replies_file in
  let sess_at_measured = ref None in
  let router e =
    let t0 = now () in
    let reply = Csc_server.Server.handle_line srv e.line in
    let dt = now () -. t0 in
    output_string oc reply;
    output_char oc '\n';
    (dt, String.length reply)
  in
  let mirror e =
    let g0 = Gc.quick_stat () in
    let root = open_span "request" in
    ignore (handle sess e.line);
    close_span root;
    let g1 = Gc.quick_stat () in
    [ ("latency_s", Json.Float (root.stop -. root.start));
      ( "minor_mb",
        Json.Float
          ((g1.Gc.minor_words -. g0.Gc.minor_words)
          *. float_of_int (Sys.word_size / 8) /. 1e6) );
      ( "major_collections",
        Json.Int (g1.Gc.major_collections - g0.Gc.major_collections) ) ]
  in
  let rows =
    List.mapi
      (fun i e ->
        if e.phase = "measured" && !sess_at_measured = None then
          sess_at_measured :=
            Some (Session.hits sess, Session.misses sess,
                  Session.evictions sess);
        cur_req := i;
        facts := [];
        post := [];
        let (handle_s, reply_bytes), timing =
          if i mod 2 = 0 then
            let a = router e in
            (a, mirror e)
          else
            let b = mirror e in
            (router e, b)
        in
        List.iter (fun f -> f ()) (List.rev !post);
        Json.Obj
          ([ ("phase", Json.Str e.phase);
             ("kind", Json.List (List.map (fun k -> Json.Str k) e.kind));
             ("handle_s", Json.Float handle_s);
             ("reply_bytes", Json.Int reply_bytes) ]
          @ timing @ List.rev !facts))
      entries
  in
  close_out oc;
  let h0, m0, e0 = Option.value ~default:(0, 0, 0) !sess_at_measured in
  let session =
    Json.Obj
      [ ("measured_hits", Json.Int (Session.hits sess - h0));
        ("measured_misses", Json.Int (Session.misses sess - m0));
        ("measured_evictions", Json.Int (Session.evictions sess - e0));
        ("bytes", Json.Int (Session.bytes_used sess)) ]
  in
  (rows, session)

let span_json s =
  Json.List
    [ Json.Int s.req; Json.Str s.name; Json.Float (s.start -. t_origin);
      Json.Float (s.stop -. t_origin); Json.Int s.parent;
      Json.Float s.alloc; Json.Bool s.derived ]

let () =
  match Sys.argv with
  | [| _; replay_file; out |] ->
    let entries = read_replay replay_file in
    let requests, session = replay entries (out ^ ".replies") in
    let doc =
      Json.Obj
        [ ("requests", Json.List requests);
          ("session", session);
          ( "spans_fields",
            Json.List
              (List.map
                 (fun s -> Json.Str s)
                 [ "req"; "name"; "start"; "end"; "parent"; "alloc_bytes";
                   "derived" ]) );
          ("spans", Json.List (List.rev_map span_json !spans)) ]
    in
    let oc = open_out_bin out in
    output_string oc (Json.to_string doc);
    close_out oc
  | _ ->
    prerr_endline "usage: trace.exe REPLAY OUT";
    exit 2
