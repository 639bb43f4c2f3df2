(** Analysis driver: run any of the evaluated analyses on a program and
    collect time + precision metrics in one uniform record. The CLI, the
    examples and the benchmark harness all sit on this layer. *)

open Csc_common
module Ir = Csc_ir.Ir
module Solver = Csc_pta.Solver
module Csc = Csc_core.Csc
module Metrics = Csc_clients.Metrics

(** The analyses of the paper's evaluation plus extensions. [Imp_*] run on
    the imperative engine (Tai-e analog, Table 2), [Doop_*] on the Datalog
    engine (Doop analog, Table 1). *)
type analysis =
  | Imp_ci
  | Imp_csc
  | Imp_csc_cfg of Csc.config  (** ablations (§5.1 pattern-impact study) *)
  | Imp_kobj of int  (** k-object-sensitive; [Imp_kobj 2] is "2obj" *)
  | Imp_ktype of int
  | Imp_kcall of int
  | Imp_zipper
  | Imp_no_collapse of analysis
      (** same analysis with the solver's online cycle collapsing disabled
          (differential testing, the E11 bench comparison) *)
  | Doop_ci
  | Doop_csc
  | Doop_2obj
  | Doop_2type
  | Doop_zipper

val name : analysis -> string
val all_imperative : analysis list
val all_datalog : analysis list

(** The canonical analysis spellings (for help text); {!analysis_of_string}
    accepts these plus the generalized forms below. *)
val analysis_names : string list

(** Parse an analysis name. Grammar (one shared parser for the CLI, the
    bench harness and the analysis server):

    {v
    analysis ::= "ci" | "csc" | "csc-field" | "csc-container"
               | "csc-localflow" | "zipper-e"
               | <K>"obj" | <K>"type" | <K>"call"        (positive K)
               | "kobj:"<K> | "ktype:"<K> | "kcall:"<K>  (same, colon form)
               | "doop-"<d> | "doop:"<d>                 (d: ci, csc, 2obj,
                                                          2type, zipper-e)
               | "no-collapse:"<analysis>                (imperative only)
    v}

    [Error msg] describes the failure and restates the grammar. The parse is
    compatible with {!name}: [analysis_of_string (name a) = Ok a] for every
    [a] the CLI can spell. *)
val analysis_of_string : string -> (analysis, string) result

(** True for the Doop-engine analyses (their times are not comparable with
    the imperative engine's; dispatch on this, not on name prefixes). *)
val is_datalog : analysis -> bool

type outcome = {
  o_analysis : string;
  o_timeout : bool;
  o_time : float;       (** total wall-clock (pre + main) *)
  o_pre_time : float;   (** pre-analysis + selection (Zipper only) *)
  o_main_time : float;
  o_result : Solver.result option;  (** None on timeout *)
  o_metrics : Metrics.t option;
  o_selected : Bits.t option;  (** Zipper: selected methods *)
  o_involved : Bits.t option;  (** CSC: methods in cut/shortcut edges *)
  o_shortcuts : int;
  o_snapshot : Csc_obs.Snapshot.t option;
      (** structured engine metrics; present even when the imperative engine
          timed out (the aborted state), [None] only for Datalog timeouts *)
  o_profile : Csc_obs.Attr.profile option;
      (** cost attribution (hot methods/pointers/rules), present iff the run
          was started with [~profile:true] and did not time out *)
}

(** An explicit run request: the analysis to run plus every knob {!run_spec}
    honours. This record is the driver's session-facing API — the CLI
    subcommands, the bench harness and the analysis server all build a
    [spec] and hand it to {!run_spec} (or to [Session.outcome], which caches
    on it). Construct with {!spec} and override fields with [{ ... with }]
    so new knobs don't break callers. *)
type spec = {
  sp_analysis : analysis;
  sp_budget_s : float option;  (** wall-clock budget, [None] = unlimited *)
  sp_validate : bool;          (** IR validation before analyzing *)
  sp_explain : bool;           (** record points-to provenance *)
  sp_collapse : bool;          (** online cycle collapsing (imperative) *)
  sp_profile : bool;           (** cost attribution into [o_profile] *)
  sp_profile_top : int;        (** rows per rendered profile table *)
  sp_progress_s : float option;  (** stderr heartbeat cadence *)
  sp_jobs : int;               (** imperative solver domains *)
}

(** [spec a] is the default request for analysis [a]: no budget, no
    validation, no provenance, collapsing on, no profile (top 25), no
    heartbeat, one domain. *)
val spec : analysis -> spec

(** Cache-key normalization: fields that cannot change the outcome (today
    only [sp_progress_s], a pure stderr cadence) reset to their defaults, so
    a result cache keyed on [spec_key s] is shared across them. *)
val spec_key : spec -> spec

(** Run one analysis as described by the request record. Semantics of the
    individual knobs are documented on {!run}, which is a thin
    optional-argument wrapper over this function. *)
val run_spec : spec -> Ir.program -> outcome

(** Run one analysis under an optional wall-clock budget (seconds; a 4 GB
    heap cap applies too). Timeouts are reported in the outcome, not
    raised — like the paper's ">2h" cells. [validate] (default false) runs
    {!Csc_ir.Validate.check_exn} on the program first, so malformed IR fails
    fast (raising [Failure]) instead of corrupting analysis results; the
    test suite keeps it always on. [explain] (default false) records
    points-to provenance on the imperative engine (adds a [prov_records]
    counter to the snapshot); it has no effect on Doop analyses.
    [collapse] (default true) controls the imperative solver's online cycle
    collapsing — semantics-preserving, so results only differ in speed;
    [Imp_no_collapse] is the same switch as an analysis value.

    [profile] (default false) collects cost attribution into [o_profile]:
    per-method/per-pointer propagation on the imperative engine (for Zipper,
    the main selective analysis), per-rule/per-stratum tuples and time on the
    Datalog engine (pre + main phases combined); [profile_top] (default 25)
    caps each rendered table. [progress_s] emits a heartbeat line to stderr
    every that-many seconds of solving on either engine.

    [jobs] (default 1) solves imperative analyses on that many domains via
    the sharded bulk-synchronous engine ({!Csc_pta.Par}) — the fixpoint,
    precision metrics and plugin behaviour are identical to the sequential
    solver for every value. When a requested [jobs > 1] cannot be honoured —
    a sequential-only build (OCaml < 5), provenance recording ([explain]),
    or a Datalog analysis — the run falls back to one domain and says why on
    stderr rather than degrading silently. *)
val run :
  ?budget_s:float ->
  ?validate:bool ->
  ?explain:bool ->
  ?collapse:bool ->
  ?profile:bool ->
  ?profile_top:int ->
  ?progress_s:float ->
  ?jobs:int ->
  Ir.program ->
  analysis ->
  outcome

type recall_report = {
  rc_analysis : string;
  rc_methods : float;
  rc_edges : float;
}

(** The §5.1 recall experiment: execute the program, then score how much of
    the dynamic behaviour each analysis over-approximates (1.0 = all). *)
val recall :
  ?budget_s:float ->
  ?max_steps:int ->
  Ir.program ->
  analysis list ->
  recall_report list

(** Fraction of CSC-involved methods also selected by Zipper^e (Table 3's
    "overlap" column). *)
val overlap : involved:Bits.t -> selected:Bits.t -> float
