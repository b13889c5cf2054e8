(* Named phases of a solver run.  A closed enumeration rather than free
   strings so the timer can accumulate into a flat array without hashing
   on the hot path. *)

type t =
  | Parse
  | Preprocess
  | Propagate
  | Decide
  | Analyze
  | Reduce_db
  | Lower_bound
  | Simplex
  | Subgradient
  | Incumbent_cuts
  | Certify
  | Report
  | Other
  | Separate

let count = 14

let index = function
  | Parse -> 0
  | Preprocess -> 1
  | Propagate -> 2
  | Decide -> 3
  | Analyze -> 4
  | Reduce_db -> 5
  | Lower_bound -> 6
  | Simplex -> 7
  | Subgradient -> 8
  | Incumbent_cuts -> 9  (* formerly "cut_generation": same id, so old profiles decode *)
  | Certify -> 10
  | Report -> 11
  | Other -> 12
  | Separate -> 13

let name = function
  | Parse -> "parse"
  | Preprocess -> "preprocess"
  | Propagate -> "propagate"
  | Decide -> "decide"
  | Analyze -> "analyze"
  | Reduce_db -> "reduce_db"
  | Lower_bound -> "lower_bound"
  | Simplex -> "simplex"
  | Subgradient -> "subgradient"
  | Incumbent_cuts -> "incumbent_cuts"
  | Certify -> "certify"
  | Report -> "report"
  | Other -> "other"
  | Separate -> "separate"

(* Inverse of [index]; out-of-range indices answer [None] so decoders of
   externally sampled stacks (Profile cells) never raise. *)
let of_index = function
  | 0 -> Some Parse
  | 1 -> Some Preprocess
  | 2 -> Some Propagate
  | 3 -> Some Decide
  | 4 -> Some Analyze
  | 5 -> Some Reduce_db
  | 6 -> Some Lower_bound
  | 7 -> Some Simplex
  | 8 -> Some Subgradient
  | 9 -> Some Incumbent_cuts
  | 10 -> Some Certify
  | 11 -> Some Report
  | 12 -> Some Other
  | 13 -> Some Separate
  | _ -> None

(* Phases coarse enough to emit one tracing span per entry.  The inner
   search phases (propagate/decide/analyze) fire thousands of times per
   second: span-tracing them would swamp any trace file, so they are
   visible to the sampling profiler (phase cells) but not to Span. *)
let coarse = function
  | Parse | Preprocess | Reduce_db | Lower_bound | Simplex | Subgradient | Incumbent_cuts
  | Certify | Report | Separate ->
    true
  | Propagate | Decide | Analyze | Other -> false

let all =
  [
    Parse;
    Preprocess;
    Propagate;
    Decide;
    Analyze;
    Reduce_db;
    Lower_bound;
    Simplex;
    Subgradient;
    Incumbent_cuts;
    Certify;
    Report;
    Other;
    Separate;
  ]
