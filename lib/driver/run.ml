(** Analysis driver: run any of the evaluated analyses on a program and
    collect time + precision metrics in one uniform record. This is the layer
    the CLI, the examples and the benchmark harness sit on. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Par = Csc_pta.Par
module Context = Csc_pta.Context
module Csc = Csc_core.Csc
module Metrics = Csc_clients.Metrics
module Dl = Csc_datalog.Analysis
module Snapshot = Csc_obs.Snapshot
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr

(** The analyses of the paper's evaluation, on both engines. [Imp_*] run on
    the imperative engine (Tai-e analog, Table 2), [Doop_*] on the Datalog
    engine (Doop analog, Table 1). *)
type analysis =
  | Imp_ci
  | Imp_csc
  | Imp_csc_cfg of Csc.config  (** ablations (§5.1 pattern-impact study) *)
  | Imp_kobj of int            (** k-object-sensitive, heap depth k-1 min 1 *)
  | Imp_ktype of int
  | Imp_kcall of int
  | Imp_zipper
  | Imp_no_collapse of analysis
      (** same analysis with the solver's online cycle collapsing disabled;
          the differential tests and the E11 bench row are built on this *)
  | Doop_ci
  | Doop_csc
  | Doop_2obj
  | Doop_2type
  | Doop_zipper

let rec name = function
  | Imp_ci -> "ci"
  | Imp_csc -> "csc"
  | Imp_csc_cfg cfg -> Csc.config_name cfg
  | Imp_kobj k -> Printf.sprintf "%dobj" k
  | Imp_ktype k -> Printf.sprintf "%dtype" k
  | Imp_kcall k -> Printf.sprintf "%dcall" k
  | Imp_zipper -> "zipper-e"
  | Imp_no_collapse a -> name a ^ "+nocollapse"
  | Doop_ci -> "doop-ci"
  | Doop_csc -> "doop-csc"
  | Doop_2obj -> "doop-2obj"
  | Doop_2type -> "doop-2type"
  | Doop_zipper -> "doop-zipper-e"

let all_imperative = [ Imp_ci; Imp_csc; Imp_kobj 2; Imp_ktype 2; Imp_zipper ]
let all_datalog = [ Doop_ci; Doop_csc; Doop_2obj; Doop_2type; Doop_zipper ]

let rec is_datalog = function
  | Doop_ci | Doop_csc | Doop_2obj | Doop_2type | Doop_zipper -> true
  | Imp_no_collapse a -> is_datalog a
  | Imp_ci | Imp_csc | Imp_csc_cfg _ | Imp_kobj _ | Imp_ktype _ | Imp_kcall _
  | Imp_zipper ->
    false

(* --------------------------------------------------- analysis-name grammar *)

let analysis_names =
  [ "ci"; "csc"; "csc-field"; "csc-container"; "csc-localflow"; "1obj";
    "2obj"; "3obj"; "1type"; "2type"; "1call"; "2call"; "zipper-e"; "doop-ci";
    "doop-csc"; "doop-2obj"; "doop-2type"; "doop-zipper-e" ]

let grammar_help =
  "expected one of: ci, csc, csc-field, csc-container, csc-localflow, \
   zipper-e, <K>obj, <K>type, <K>call (or kobj:<K>, ktype:<K>, kcall:<K>), \
   doop-ci, doop-csc, doop-2obj, doop-2type, doop-zipper-e (or doop:<name>), \
   no-collapse:<imperative analysis>"

(* "<K>obj" / "<K>type" / "<K>call" with K a positive integer *)
let k_suffixed s ~suffix =
  let ls = String.length s and lx = String.length suffix in
  if ls <= lx || String.sub s (ls - lx) lx <> suffix then None
  else
    match int_of_string_opt (String.sub s 0 (ls - lx)) with
    | Some k when k >= 1 -> Some k
    | _ -> None

let after_colon s prefix =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let rec analysis_of_string (s : string) : (analysis, string) result =
  let k_arg rest mk =
    match int_of_string_opt rest with
    | Some k when k >= 1 -> Ok (mk k)
    | _ -> Error (Printf.sprintf "bad context depth %S (want a positive integer)" rest)
  in
  match s with
  | "ci" -> Ok Imp_ci
  | "csc" -> Ok Imp_csc
  | "csc-field" ->
    Ok
      (Imp_csc_cfg
         { field_pattern = true; container_pattern = false; local_flow = false })
  | "csc-container" ->
    Ok
      (Imp_csc_cfg
         { field_pattern = false; container_pattern = true; local_flow = false })
  | "csc-localflow" ->
    Ok
      (Imp_csc_cfg
         { field_pattern = false; container_pattern = false; local_flow = true })
  | "zipper-e" -> Ok Imp_zipper
  | "doop-ci" -> Ok Doop_ci
  | "doop-csc" -> Ok Doop_csc
  | "doop-2obj" -> Ok Doop_2obj
  | "doop-2type" -> Ok Doop_2type
  | "doop-zipper-e" -> Ok Doop_zipper
  | s -> (
    match after_colon s "no-collapse:" with
    | Some rest -> (
      match analysis_of_string rest with
      | Error _ as e -> e
      | Ok a when is_datalog a ->
        Error
          (Printf.sprintf
             "no-collapse:%s — cycle collapsing is an imperative-engine \
              switch; it does not apply to Datalog analyses"
             rest)
      | Ok a -> Ok (Imp_no_collapse a))
    | None -> (
      match after_colon s "doop:" with
      | Some rest -> analysis_of_string ("doop-" ^ rest)
      | None -> (
        match after_colon s "kobj:" with
        | Some rest -> k_arg rest (fun k -> Imp_kobj k)
        | None -> (
          match after_colon s "ktype:" with
          | Some rest -> k_arg rest (fun k -> Imp_ktype k)
          | None -> (
            match after_colon s "kcall:" with
            | Some rest -> k_arg rest (fun k -> Imp_kcall k)
            | None -> (
              match k_suffixed s ~suffix:"obj" with
              | Some k -> Ok (Imp_kobj k)
              | None -> (
                match k_suffixed s ~suffix:"type" with
                | Some k -> Ok (Imp_ktype k)
                | None -> (
                  match k_suffixed s ~suffix:"call" with
                  | Some k -> Ok (Imp_kcall k)
                  | None ->
                    Error
                      (Printf.sprintf "unknown analysis %S; %s" s grammar_help)))))))))

type outcome = {
  o_analysis : string;
  o_timeout : bool;
  o_time : float;            (** total wall-clock (pre + main) *)
  o_pre_time : float;        (** pre-analysis + selection (Zipper only) *)
  o_main_time : float;
  o_result : Solver.result option;
  o_metrics : Metrics.t option;
  o_selected : Bits.t option;   (** Zipper: selected methods *)
  o_involved : Bits.t option;   (** CSC: methods in cut/shortcut edges *)
  o_shortcuts : int;
  o_snapshot : Snapshot.t option;
      (** engine metrics; present even on imperative-engine timeouts *)
  o_profile : Attr.profile option;
      (** cost attribution, present iff [run ~profile:true] *)
}

let timeout_outcome ?snapshot analysis elapsed =
  {
    o_analysis = name analysis;
    o_timeout = true;
    o_time = elapsed;
    o_pre_time = 0.;
    o_main_time = elapsed;
    o_result = None;
    o_metrics = None;
    o_selected = None;
    o_involved = None;
    o_shortcuts = 0;
    o_snapshot = snapshot;
    o_profile = None;
  }

let of_result ?(pre_time = 0.) ?selected ?involved ?(shortcuts = 0) analysis p
    (r : Solver.result) total_time =
  let metrics =
    Trace.with_span ~cat:"driver" "client-metrics" (fun () ->
        Metrics.compute p r)
  in
  {
    o_analysis = name analysis;
    o_timeout = false;
    o_time = total_time;
    o_pre_time = pre_time;
    o_main_time = total_time -. pre_time;
    o_result = Some r;
    o_metrics = Some metrics;
    o_selected = selected;
    o_involved = involved;
    o_shortcuts = shortcuts;
    o_snapshot = Some r.Solver.r_snapshot;
    o_profile = None;
  }

(* ------------------------------------------------------------------ spec *)

type spec = {
  sp_analysis : analysis;
  sp_budget_s : float option;
  sp_validate : bool;
  sp_explain : bool;
  sp_collapse : bool;
  sp_profile : bool;
  sp_profile_top : int;
  sp_progress_s : float option;
  sp_jobs : int;
}

let spec analysis =
  {
    sp_analysis = analysis;
    sp_budget_s = None;
    sp_validate = false;
    sp_explain = false;
    sp_collapse = true;
    sp_profile = false;
    sp_profile_top = 25;
    sp_progress_s = None;
    sp_jobs = 1;
  }

(* progress heartbeats only change stderr cadence, never the outcome, so the
   session result cache must not fragment on them *)
let spec_key s = { s with sp_progress_s = None }

(** Run one analysis under an optional time budget (seconds). Timeouts are
    reported in the outcome, not raised — like the paper's ">2h" cells.
    [sp_validate] runs {!Csc_ir.Validate.check_exn} first so malformed IR
    fails fast instead of silently corrupting analysis results. *)
let rec run_spec (s : spec) (p : Ir.program) : outcome =
  let {
    sp_analysis = analysis;
    sp_budget_s = budget_s;
    sp_validate = validate;
    sp_explain = explain;
    sp_collapse = collapse;
    sp_profile = profile;
    sp_profile_top = profile_top;
    sp_progress_s = progress_s;
    sp_jobs = jobs;
  } =
    s
  in
  if validate then Csc_ir.Validate.check_exn p;
  (* a requested --jobs N that cannot be honoured says so instead of
     silently running sequentially (the results are identical either way;
     only the wall-clock expectation differs) *)
  let jobs = max 1 jobs in
  let jobs =
    if jobs > 1 && not Domains_compat.available then begin
      Fmt.epr
        "note: this build has no multicore runtime (OCaml < 5); --jobs %d \
         runs on a single domain@."
        jobs;
      1
    end
    else jobs
  in
  let jobs =
    if jobs > 1 && explain then begin
      Fmt.epr
        "note: provenance recording (--explain) is inherently sequential; \
         --jobs %d runs on a single domain@."
        jobs;
      1
    end
    else jobs
  in
  let jobs =
    if jobs > 1 && is_datalog analysis then begin
      Fmt.epr
        "note: --jobs applies to the imperative engine only; %s runs \
         sequentially@."
        (name analysis);
      1
    end
    else jobs
  in
  let budget =
    match budget_s with
    | Some s -> Timer.budget_of_seconds s
    | None -> Timer.no_budget
  in
  let t0 = Timer.now () in
  let elapsed () = Timer.now () -. t0 in
  (* built via create/run (not [Solver.analyze]) to keep the solver handle:
     the timeout path still snapshots the aborted engine state *)
  let solve ?plugin_of sel =
    let t = Solver.create ~budget ~sel ~collapse p in
    if explain then
      if Solver.enable_provenance t then
        Fmt.epr
          "note: provenance recording (--explain) disables online cycle \
           collapsing for this run; expect a slower solve@.";
    if profile then Solver.enable_attr t;
    (match progress_s with Some s -> Solver.set_progress t s | None -> ());
    (match plugin_of with Some f -> Solver.set_plugin t (f t) | None -> ());
    match Par.run ~jobs t with
    | () -> Ok t
    | exception Solver.Timeout -> Error (Solver.snapshot t)
  in
  let imperative ?plugin_of sel finish =
    match solve ?plugin_of sel with
    | Ok t ->
      let o = finish (Solver.result t) in
      if profile then { o with o_profile = Solver.profile ~top:profile_top t }
      else o
    | Error snapshot -> timeout_outcome ~snapshot analysis (elapsed ())
  in
  (* Datalog runs share one attribution table across pre + main phases *)
  let dl_attr = if profile then Some (Attr.create ()) else None in
  let dl_profile (o : outcome) : outcome =
    match dl_attr with
    | None -> o
    | Some a ->
      let prof =
        Attr.render ~top:profile_top a ~engine:"datalog"
          ~meth_name:string_of_int ~ptr_name:string_of_int
      in
      { o with o_profile = Some prof }
  in
  match analysis with
  | Imp_no_collapse inner ->
    let o =
      run_spec { s with sp_analysis = inner; sp_collapse = false } p
    in
    { o with o_analysis = name analysis }
  | Imp_ci ->
    imperative Context.ci (fun r -> of_result analysis p r (elapsed ()))
  | Imp_csc | Imp_csc_cfg _ ->
    let config =
      match analysis with Imp_csc_cfg c -> c | _ -> Csc.default_config
    in
    let handle = ref None in
    let plugin_of s =
      let pl, h = Csc.plugin_with_handle ~config s in
      handle := Some h;
      pl
    in
    imperative ~plugin_of Context.ci (fun r ->
        let involved, shortcuts =
          match !handle with
          | Some h -> (Some (Csc.involved_methods h), Csc.shortcut_count h)
          | None -> (None, 0)
        in
        of_result ?involved ~shortcuts analysis p r (elapsed ()))
  | Imp_kobj k ->
    imperative (Context.kobj ~k ~hk:(max 1 (k - 1))) (fun r ->
        of_result analysis p r (elapsed ()))
  | Imp_ktype k ->
    imperative (Context.ktype ~k ~hk:(max 1 (k - 1))) (fun r ->
        of_result analysis p r (elapsed ()))
  | Imp_kcall k ->
    imperative (Context.kcall ~k ~hk:(max 1 (k - 1))) (fun r ->
        of_result analysis p r (elapsed ()))
  | Imp_zipper -> (
    (* pre-analysis (CI) + selection, then selective 2obj *)
    match solve Context.ci with
    | Error snapshot -> timeout_outcome ~snapshot analysis (elapsed ())
    | Ok pre ->
      let pre_r = Solver.result pre in
      let sel =
        Trace.with_span ~cat:"driver" "zipper-select" (fun () ->
            Zipper.select p pre_r)
      in
      let pre_time = elapsed () in
      let selector =
        Context.selective ~selected:sel.Zipper.selected
          ~base:(Context.kobj ~k:2 ~hk:1)
      in
      imperative selector (fun r ->
          of_result ~pre_time ~selected:sel.Zipper.selected analysis p r
            (elapsed ())))
  | Doop_ci | Doop_csc | Doop_2obj | Doop_2type -> (
    let kind =
      match analysis with
      | Doop_ci -> Dl.Ci
      | Doop_csc -> Dl.Csc_doop
      | Doop_2obj -> Dl.Obj2
      | _ -> Dl.Type2
    in
    let dl_run kind =
      Trace.with_span ~cat:"driver" ("datalog:" ^ Dl.kind_name kind) (fun () ->
          Dl.run ~budget ?attr:dl_attr ?progress_s p kind)
    in
    match dl_run kind with
    | r -> dl_profile (of_result analysis p r (elapsed ()))
    | exception Dl.Timeout -> timeout_outcome analysis (elapsed ()))
  | Doop_zipper -> (
    let dl_run kind =
      Trace.with_span ~cat:"driver" ("datalog:" ^ Dl.kind_name kind) (fun () ->
          Dl.run ~budget ?attr:dl_attr ?progress_s p kind)
    in
    match dl_run Dl.Ci with
    | exception Dl.Timeout -> timeout_outcome analysis (elapsed ())
    | pre_r -> (
      let sel =
        Trace.with_span ~cat:"driver" "zipper-select" (fun () ->
            Zipper.select p pre_r)
      in
      let pre_time = elapsed () in
      match dl_run (Dl.Selective2obj sel.Zipper.selected) with
      | r ->
        dl_profile
          (of_result ~pre_time ~selected:sel.Zipper.selected analysis p r
             (elapsed ()))
      | exception Dl.Timeout -> timeout_outcome analysis (elapsed ())))

(** Optional-argument convenience over {!run_spec}; the two are equivalent
    by construction. *)
let run ?budget_s ?(validate = false) ?(explain = false) ?(collapse = true)
    ?(profile = false) ?(profile_top = 25) ?progress_s ?(jobs = 1)
    (p : Ir.program) (analysis : analysis) : outcome =
  run_spec
    {
      sp_analysis = analysis;
      sp_budget_s = budget_s;
      sp_validate = validate;
      sp_explain = explain;
      sp_collapse = collapse;
      sp_profile = profile;
      sp_profile_top = profile_top;
      sp_progress_s = progress_s;
      sp_jobs = jobs;
    }
    p

(* ------------------------------------------------------------- recall *)

type recall_report = {
  rc_analysis : string;
  rc_methods : float;
  rc_edges : float;
}

(** The §5.1 recall experiment: execute the program, then check how much of
    the dynamic behaviour each analysis over-approximates. *)
let recall ?budget_s ?(max_steps = 50_000_000) (p : Ir.program)
    (analyses : analysis list) : recall_report list =
  let dyn = Csc_interp.Interp.run ~max_steps p in
  List.filter_map
    (fun a ->
      match (run ?budget_s p a).o_result with
      | None -> None
      | Some r ->
        let rc =
          Metrics.recall r ~dyn_reach:dyn.dyn_reachable ~dyn_edges:dyn.dyn_edges
        in
        Some
          {
            rc_analysis = name a;
            rc_methods = rc.recall_methods;
            rc_edges = rc.recall_edges;
          })
    analyses

(** Overlap of Zipper-selected methods with CSC-involved methods (Table 3's
    last column): the fraction of CSC-involved methods also selected by
    Zipper^e. *)
let overlap ~(involved : Bits.t) ~(selected : Bits.t) : float =
  let total = Bits.cardinal involved in
  if total = 0 then 0.
  else
    let inter =
      Bits.fold
        (fun m acc -> if Bits.mem selected m then acc + 1 else acc)
        involved 0
    in
    float inter /. float total
