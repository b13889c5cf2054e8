(** Derived analyses over the observability artifacts.

    Consumes the [--json] run reports, [--trace-spans] span files and
    [--heartbeat] JSONL streams written by the solvers (see
    [docs/OBSERVABILITY.md]), and produces the derived views behind
    [bsolo inspect]: per-procedure effectiveness, gap-closure timeline,
    search-tree shape, report diffs, span and heartbeat checks.  Pure
    functions from parsed JSON so everything is unit-testable. *)

module Json = Telemetry.Json

(** {1 Loading} *)

val load_file : string -> (Json.t, string) result

val load_jsonl : string -> (Json.t list * int, string) result
(** One JSON value per line (heartbeat files), plus the number of
    unparseable lines skipped — a file cut short by a signal or timeout
    loses at most its partial tail, not the whole file. *)

(** {1 Report accessors} *)

val schema_of : Json.t -> string option
val counter : Json.t -> string -> int
(** Missing counters read as 0. *)

val phase : Json.t -> string -> float
val elapsed : Json.t -> float

type hist_stats = {
  h_total : int;
  h_mean : float;
  h_max : int;
}

val histogram_stats : Json.t -> string -> hist_stats option

val gap_samples : Json.t -> (float * float * float) list
(** The [search.gap] series as [(t, lb, ub)] triples. *)

val incumbent_points : Json.t -> (float * int) list

(** {1 Per-procedure effectiveness (paper Table 1's question)} *)

type proc_row = {
  proc : string;
  calls : int;
  time_s : float;
  time_share : float;
  mean_tightness_pm : float;
  bound_conflicts : int;
  mean_backjump : float;
  pruning_credit : int;  (** total levels undone by its bound conflicts *)
}

val effectiveness : Json.t -> proc_row list
(** One row per LB procedure that left instruments in the report, plus a
    ["path"] pseudo-row when path-cost-only bound conflicts fired. *)

val render_effectiveness : proc_row list -> string list

(** {1 Gap-closure timeline} *)

val gap_timeline : Json.t -> (float * float option * float) list
(** [(t, lb, ub)]; [lb = None] when only the incumbent trajectory is
    available. *)

val render_gap_timeline : ?max_lines:int -> (float * float option * float) list -> string list

(** {1 Search-tree shape} *)

val render_tree_shape : Json.t -> string list

val render_bcp : Json.t -> string list
(** Propagation-engine summary from a run report: selected [--bcp] mode,
    the [bcp.*] micro-counters and the per-mode constraint population. *)

val render_cuts : Json.t -> string list
(** Cut-pool table from a run report: per-family
    separated/applied/evicted counts and tight-rate (share of applied
    cuts that were ever tight at an LP optimum) from the [cuts.*]
    counters, plus the [presolve.*] reduction summary. *)

(** {1 Report diff} *)

type diff_entry = {
  key : string;
  base : float;
  cand : float;
  ratio : float;
  regression : bool;
}

val diff : threshold:float -> Json.t -> Json.t -> diff_entry list
(** Compare two run reports; flags counter/time increases beyond
    [1 + threshold] (above small noise floors). *)

val render_diff : ?all:bool -> diff_entry list -> string list
val has_regression : diff_entry list -> bool

(** {1 Sampling-profile view}

    Renders the ["profile"] member a report gains when the solver ran
    with [--profile-hz]: folded stacks (flamegraph input), a
    leaf-attributed self-time table, and a cross-check of the dominant
    phase's sampled share against the exact phase timers. *)

type profile_agreement = {
  pa_phase : string;  (** dominant (most-sampled) phase *)
  pa_sampled : float;  (** its leaf-attributed sampled share, 0..1 *)
  pa_timer : float;  (** its exact self-time share, 0..1 *)
  pa_ok : bool;  (** shares agree within 15% (absolute or relative) *)
  pa_low : bool;  (** too few samples for the check to be meaningful *)
  pa_no_timers : bool;
      (** the report has no exact phase times to compare against (e.g. a
          parallel portfolio run, whose worker timers are silent) *)
}

val profile_agreement : Json.t -> profile_agreement option
(** [None] when the report has no profile or no phase-attributed
    samples. *)

val render_profile : Json.t -> string list

(** {1 Span-file validation} *)

val load_spans : string -> (Json.t list, string) result
(** Parse a Chrome trace-event JSON array; a file truncated by a signal
    (missing the closing bracket, possibly with a torn tail line) is
    repaired before parsing. *)

type span_stats = {
  sp_events : int;
  sp_tracks : int;
  sp_max_depth : int;
  sp_last_ts : float;  (** microseconds *)
  sp_run_id : string option;
  sp_dropped : int;
      (** begin events the writer dropped at its event cap (the
          [bsolo_dropped_events] meta); a non-zero count means the file
          is a truncated prefix of the run and the summary says so *)
}

val validate_spans : Json.t list -> (span_stats, string list) result
(** Checks exactly one [bsolo_run] header (schema + shared epoch) and,
    per track, B/E well-nesting ([args.id] matching, [args.parent] =
    enclosing span) with monotone timestamps.  [Error] lists every
    violation found. *)

val render_span_stats : span_stats -> string list

(** {1 Heartbeat view} *)

val render_snapshot : Telemetry.Snapshot.snap -> string list

val heartbeat_view : Json.t list -> string list
(** Terminal status view over the parsed lines of a heartbeat JSONL
    file: header, latest snapshot's member table and the best-gap
    trend. *)

val heartbeat_check : Json.t list -> (string list, string list) result
(** Structural checks for the smoke suite: header present, at least two
    snapshots, an end record, strictly increasing sequence numbers and
    per-member gaps that never widen.  [Ok] carries a one-line
    summary. *)

(** {1 Pruning forensics over flight recordings} *)

module Forensics : module type of Forensics
