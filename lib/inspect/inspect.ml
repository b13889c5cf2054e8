(* Derived analyses over the observability artifacts: `--json` run
   reports, `--trace-spans` span files and `--heartbeat` JSONL streams.
   Everything here is a pure function from parsed JSON to strings or
   typed rows, so the CLI subcommand stays a thin shell and the analyses
   are unit-testable. *)

module Json = Telemetry.Json

(* --- loading --------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_file path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    (match Json.of_string (String.trim text) with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* JSONL recovery: a crashed or killed run leaves at most one partial
   trailing line; more generally any unparseable line is skipped and
   counted rather than failing the whole inspection. *)
let load_jsonl path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    let lines = String.split_on_char '\n' text in
    let events = ref [] in
    let skipped = ref 0 in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then begin
          match Json.of_string line with
          | Ok v -> events := v :: !events
          | Error _ -> incr skipped
        end)
      lines;
    Ok (List.rev !events, !skipped)

(* --- report accessors ------------------------------------------------------ *)

let schema_of json = Option.bind (Json.member "schema" json) Json.to_string_opt

let counter json name =
  Option.value ~default:0
    (Option.bind (Option.bind (Json.member "counters" json) (Json.member name)) Json.to_int)

let counters_alist json =
  match Json.member "counters" json with
  | Some (Json.Obj fields) ->
    List.filter_map (fun (k, v) -> Option.map (fun i -> k, i) (Json.to_int v)) fields
  | Some _ | None -> []

let phase json name =
  Option.value ~default:0.
    (Option.bind (Option.bind (Json.member "phases" json) (Json.member name)) Json.to_float)

let phases_alist json =
  match Json.member "phases" json with
  | Some (Json.Obj fields) ->
    List.filter_map (fun (k, v) -> Option.map (fun f -> k, f) (Json.to_float v)) fields
  | Some _ | None -> []

let elapsed json =
  Option.value ~default:0. (Option.bind (Json.member "elapsed" json) Json.to_float)

type hist_stats = {
  h_total : int;
  h_mean : float;
  h_max : int;
}

let histogram_stats json name =
  match Option.bind (Json.member "histograms" json) (Json.member name) with
  | None -> None
  | Some h ->
    let i field = Option.value ~default:0 (Option.bind (Json.member field h) Json.to_int) in
    let f field = Option.value ~default:0. (Option.bind (Json.member field h) Json.to_float) in
    Some { h_total = i "total"; h_mean = f "mean"; h_max = i "max" }

let gap_samples json =
  match Option.bind (Json.member "series" json) (Json.member "search.gap") with
  | None -> []
  | Some s ->
    let samples = Option.value ~default:[] (Option.bind (Json.member "samples" s) Json.to_list) in
    List.filter_map
      (fun sample ->
        match Json.to_list sample with
        | Some [ t; lb; ub ] ->
          (match Json.to_float t, Json.to_float lb, Json.to_float ub with
          | Some t, Some lb, Some ub -> Some (t, lb, ub)
          | _ -> None)
        | Some _ | None -> None)
      samples

let incumbent_points json =
  match Option.bind (Json.member "incumbents" json) Json.to_list with
  | None -> []
  | Some points ->
    List.filter_map
      (fun p ->
        match Option.bind (Json.member "t" p) Json.to_float,
              Option.bind (Json.member "cost" p) Json.to_int with
        | Some t, Some c -> Some (t, c)
        | _ -> None)
      points

(* --- per-procedure effectiveness ------------------------------------------- *)

type proc_row = {
  proc : string;
  calls : int;
  time_s : float;  (* seconds attributed to this procedure *)
  time_share : float;  (* fraction of elapsed *)
  mean_tightness_pm : float;  (* mean gap closure, per mille *)
  bound_conflicts : int;  (* bound conflicts this procedure triggered *)
  mean_backjump : float;  (* mean levels undone per bound conflict *)
  pruning_credit : int;  (* total levels undone by its bound conflicts *)
}

let strip_affixes name ~prefix ~suffix =
  let pl = String.length prefix and sl = String.length suffix and nl = String.length name in
  if nl > pl + sl
     && String.sub name 0 pl = prefix
     && String.sub name (nl - sl) sl = suffix
  then Some (String.sub name pl (nl - pl - sl))
  else None

(* Procedure seconds: the shared lower_bound driver phase plus the
   procedure's own substrate (simplex and cut separation for LPR,
   subgradient for LGR).  With one procedure per run this attribution
   is exact. *)
let proc_seconds json = function
  | "lpr" -> phase json "lower_bound" +. phase json "simplex" +. phase json "separate"
  | "lgr" -> phase json "lower_bound" +. phase json "subgradient"
  | "mis" | "plain" -> phase json "lower_bound"
  | _ -> 0.

let effectiveness json =
  let procs =
    let from_hist =
      match Json.member "histograms" json with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, _) -> strip_affixes k ~prefix:"lb." ~suffix:".tightness_pm")
          fields
      | Some _ | None -> []
    in
    let path = if counter json "lb.path.bound_conflicts" > 0 then [ "path" ] else [] in
    List.sort_uniq compare (from_hist @ path)
  in
  let el = elapsed json in
  let row proc =
    let tightness = histogram_stats json (Printf.sprintf "lb.%s.tightness_pm" proc) in
    let backjump =
      histogram_stats json
        (if proc = "path" then "lb.path.bc_backjump"
         else Printf.sprintf "lb.%s.bc_backjump" proc)
    in
    let calls =
      match counter json (proc ^ ".calls") with
      | 0 -> (match tightness with Some h -> h.h_total | None -> 0)
      | n -> n
    in
    let time_s = proc_seconds json proc in
    let bc = counter json (Printf.sprintf "lb.%s.bound_conflicts" proc) in
    let mean_backjump = match backjump with Some h -> h.h_mean | None -> 0. in
    {
      proc;
      calls;
      time_s;
      time_share = (if el > 0. then time_s /. el else 0.);
      mean_tightness_pm = (match tightness with Some h -> h.h_mean | None -> 0.);
      bound_conflicts = bc;
      mean_backjump;
      pruning_credit =
        (match backjump with
        | Some h -> int_of_float (h.h_mean *. float_of_int h.h_total +. 0.5)
        | None -> 0);
    }
  in
  List.map row procs

let render_effectiveness rows =
  let header =
    Printf.sprintf "%-8s %10s %9s %7s %12s %10s %9s %8s" "proc" "calls" "time(s)" "time%"
      "tightness" "conflicts" "backjump" "pruned"
  in
  let line (r : proc_row) =
    Printf.sprintf "%-8s %10d %9.3f %6.1f%% %9.0f pm %10d %9.1f %8d" r.proc r.calls r.time_s
      (100. *. r.time_share) r.mean_tightness_pm r.bound_conflicts r.mean_backjump
      r.pruning_credit
  in
  header :: List.map line rows

(* --- gap-closure timeline -------------------------------------------------- *)

(* The sampled LB/UB trajectory when present (bsolo engine with an LB
   procedure), otherwise the incumbent trajectory alone. *)
let gap_timeline json =
  match gap_samples json with
  | [] -> List.map (fun (t, c) -> t, None, float_of_int c) (incumbent_points json)
  | samples -> List.map (fun (t, lb, ub) -> t, Some lb, ub) samples

let render_gap_timeline ?(max_lines = 32) timeline =
  match timeline with
  | [] -> [ "no gap samples or incumbents recorded" ]
  | _ ->
    let n = List.length timeline in
    let stride = if n <= max_lines then 1 else (n + max_lines - 1) / max_lines in
    let header = Printf.sprintf "%10s %12s %12s %8s" "t(s)" "lb" "ub" "gap%" in
    let lines =
      List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) timeline
      |> List.map (fun (t, lb, ub) ->
             match lb with
             | Some lb ->
               let gap = if ub <> 0. then 100. *. (ub -. lb) /. Float.abs ub else 0. in
               Printf.sprintf "%10.3f %12.0f %12.0f %7.1f%%" t lb ub gap
             | None -> Printf.sprintf "%10.3f %12s %12.0f %8s" t "-" ub "-")
    in
    header :: lines

(* --- search-tree shape ----------------------------------------------------- *)

let render_tree_shape json =
  let c = counter json in
  let decisions = c "engine.decisions" in
  let conflicts = c "engine.conflicts" in
  let hist name = histogram_stats json name in
  let hist_line label name =
    match hist name with
    | None | Some { h_total = 0; _ } -> Printf.sprintf "%-22s -" label
    | Some h -> Printf.sprintf "%-22s mean %.1f  max %d  (n=%d)" label h.h_mean h.h_max h.h_total
  in
  [
    Printf.sprintf "%-22s %d" "nodes" (c "search.nodes");
    Printf.sprintf "%-22s %d" "decisions" decisions;
    Printf.sprintf "%-22s %d (%d bound)" "conflicts" conflicts (c "engine.bound_conflicts");
    Printf.sprintf "%-22s %d" "propagations" (c "engine.propagations");
    Printf.sprintf "%-22s %d" "learned" (c "engine.learned");
    Printf.sprintf "%-22s %d" "restarts" (c "engine.restarts");
    Printf.sprintf "%-22s %d" "max trail" (c "engine.max_trail");
    hist_line "decision depth" "engine.depth";
    hist_line "backjump length" "engine.backjump_len";
    hist_line "learned size" "engine.learned_size";
    Printf.sprintf "%-22s %.2f" "conflicts/decision"
      (if decisions > 0 then float_of_int conflicts /. float_of_int decisions else 0.);
  ]

let render_bcp json =
  let c = counter json in
  let mode =
    Option.value ~default:"?"
      (Option.bind
         (Option.bind (Json.member "options" json) (Json.member "bcp"))
         Json.to_string_opt)
  in
  let visits = c "bcp.visits" in
  [
    Printf.sprintf "%-22s %s" "mode" mode;
    Printf.sprintf "%-22s %d" "implied assignments" (c "bcp.propagations");
    Printf.sprintf "%-22s %d" "constraint visits" visits;
    Printf.sprintf "%-22s %d moves, %d extends" "watch updates" (c "bcp.watch_moves")
      (c "bcp.watch_extends");
    Printf.sprintf "%-22s %d watched (%d watch-all), %d counting" "constraint modes"
      (c "bcp.constrs_watched") (c "bcp.constrs_watch_all") (c "bcp.constrs_counting");
  ]

let render_cuts json =
  let c = counter json in
  let families = [ "cover"; "clique"; "implied" ] in
  let row fam =
    let g field = c (Printf.sprintf "cuts.%s.%s" fam field) in
    fam, g "separated", g "applied", g "evicted", g "tight"
  in
  let rows = List.map row families in
  let total f = List.fold_left (fun acc (_, s, a, e, t) -> acc + f (s, a, e, t)) 0 rows in
  let sep = total (fun (s, _, _, _) -> s) in
  if sep = 0 && c "presolve.reductions" = 0 then
    [ "no cuts separated and no presolve reductions (run with --cuts / --presolve?)" ]
  else
    let header = Printf.sprintf "%-10s %10s %10s %10s %10s" "family" "separated" "applied" "evicted" "tight-rate" in
    let line (fam, s, a, e, t) =
      Printf.sprintf "%-10s %10d %10d %10d %10s" fam s a e
        (if a > 0 then Printf.sprintf "%.0f%%" (100. *. float_of_int t /. float_of_int a) else "-")
    in
    (header :: List.map line rows)
    @ [
        Printf.sprintf "%-10s %10d %10d %10d" "total" sep
          (total (fun (_, a, _, _) -> a))
          (total (fun (_, _, e, _) -> e));
        Printf.sprintf "presolve: %d reductions (%d coefficients tightened, %d constraints removed)"
          (c "presolve.reductions") (c "presolve.tightened") (c "presolve.removed");
      ]

(* --- report diff ----------------------------------------------------------- *)

type diff_entry = {
  key : string;
  base : float;
  cand : float;
  ratio : float;  (* cand / base; infinity when base = 0 *)
  regression : bool;
}

(* Noise floors below which a change is never flagged: small counter
   drifts and sub-50ms timing jitter are expected between runs. *)
let counter_floor = 64.
let seconds_floor = 0.05

let entry ~threshold ~floor key base cand =
  let ratio = if base = 0. then (if cand = 0. then 1. else infinity) else cand /. base in
  let regression = cand -. base > floor && ratio > 1. +. threshold in
  { key; base; cand; ratio; regression }

let diff ~threshold a b =
  let keys =
    List.sort_uniq compare (List.map fst (counters_alist a) @ List.map fst (counters_alist b))
  in
  let counter_entries =
    List.map
      (fun k ->
        entry ~threshold ~floor:counter_floor ("counters." ^ k)
          (float_of_int (counter a k))
          (float_of_int (counter b k)))
      keys
  in
  let phase_keys =
    List.sort_uniq compare (List.map fst (phases_alist a) @ List.map fst (phases_alist b))
  in
  let phase_entries =
    List.map
      (fun k -> entry ~threshold ~floor:seconds_floor ("phases." ^ k) (phase a k) (phase b k))
      phase_keys
  in
  entry ~threshold ~floor:seconds_floor "elapsed" (elapsed a) (elapsed b)
  :: (counter_entries @ phase_entries)

let render_diff ?(all = false) entries =
  let shown = if all then entries else List.filter (fun e -> e.regression) entries in
  match shown with
  | [] -> [ "no regressions beyond threshold" ]
  | _ ->
    let header = Printf.sprintf "%-34s %14s %14s %8s" "metric" "base" "candidate" "ratio" in
    let num v = Printf.sprintf "%.3f" v in
    let ratio e = if e.ratio = infinity then "--" else Printf.sprintf "%.2fx" e.ratio in
    let line e =
      Printf.sprintf "%-34s %14s %14s %8s%s" e.key (num e.base) (num e.cand) (ratio e)
        (if e.regression then "  REGRESSION" else "")
    in
    header :: List.map line shown

let has_regression entries = List.exists (fun e -> e.regression) entries

(* --- sampling-profile view ------------------------------------------------- *)

(* The report's "profile" member, as written by
   [Telemetry.Profile.Sampler.result_json]:
   {hz, duration, ticks, stacks: [{member, stack, count}]}.  Stacks are
   ";"-folded phase names ("lower_bound;simplex") or "idle" for a
   registered member whose stack was empty at the tick. *)

let profile_stacks profile =
  match Option.bind (Json.member "stacks" profile) Json.to_list with
  | None -> []
  | Some entries ->
    List.filter_map
      (fun e ->
        match
          ( Option.bind (Json.member "member" e) Json.to_string_opt,
            Option.bind (Json.member "stack" e) Json.to_string_opt,
            Option.bind (Json.member "count" e) Json.to_int )
        with
        | Some m, Some s, Some c -> Some (m, s, c)
        | _ -> None)
      entries

let leaf_of_stack stack =
  match String.rindex_opt stack ';' with
  | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
  | None -> stack

(* Leaf-attributed sample counts per phase, "idle" excluded: the sampled
   analogue of the exact per-phase self times in the report's "phases". *)
let profile_self_samples profile =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (_member, stack, count) ->
      if stack <> "idle" then begin
        let leaf = leaf_of_stack stack in
        Hashtbl.replace tally leaf (count + Option.value ~default:0 (Hashtbl.find_opt tally leaf))
      end)
    (profile_stacks profile);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type profile_agreement = {
  pa_phase : string;
  pa_sampled : float;
  pa_timer : float;
  pa_ok : bool;
  pa_low : bool;
  pa_no_timers : bool;
}

(* Threshold below which the check is reported but not enforced: at a few
   dozen ticks the binomial noise on a share is already comparable to the
   15% tolerance. *)
let low_sample_floor = 30

let profile_agreement report =
  match Json.member "profile" report with
  | None -> None
  | Some profile ->
    (match profile_self_samples profile with
    | [] -> None
    | (dominant, samples) :: _ as self ->
      let attributed = List.fold_left (fun acc (_, c) -> acc + c) 0 self in
      let sampled = float_of_int samples /. float_of_int attributed in
      let timers = phases_alist report in
      let timer_total = List.fold_left (fun acc (_, s) -> acc +. s) 0. timers in
      let timer_self = Option.value ~default:0. (List.assoc_opt dominant timers) in
      let timer = if timer_total > 0. then timer_self /. timer_total else 0. in
      let diff = Float.abs (sampled -. timer) in
      let ok = diff <= 0.15 || (timer > 0. && diff /. timer <= 0.15) in
      Some
        {
          pa_phase = dominant;
          pa_sampled = sampled;
          pa_timer = timer;
          pa_ok = ok;
          pa_low = attributed < low_sample_floor;
          pa_no_timers = timer_total <= 0.;
        })

let render_profile report =
  match Json.member "profile" report with
  | None -> [ "no profile in report (run the solver with --profile-hz HZ --json)" ]
  | Some profile ->
    let getf name = Option.value ~default:0. (Option.bind (Json.member name profile) Json.to_float) in
    let ticks = Option.value ~default:0 (Option.bind (Json.member "ticks" profile) Json.to_int) in
    let header =
      Printf.sprintf "sampling profile: %.0f Hz, %d ticks over %.3fs" (getf "hz") ticks
        (getf "duration")
    in
    let stacks = profile_stacks profile in
    let folded =
      match stacks with
      | [] -> [ "  (no samples)" ]
      | _ ->
        List.map (fun (m, s, c) -> Printf.sprintf "  %s;%s %d" m s c) stacks
    in
    let self = profile_self_samples profile in
    let attributed = List.fold_left (fun acc (_, c) -> acc + c) 0 self in
    let timers = phases_alist report in
    let timer_total = List.fold_left (fun acc (_, s) -> acc +. s) 0. timers in
    let self_lines =
      List.map
        (fun (phase, c) ->
          let sampled = 100. *. float_of_int c /. float_of_int (max 1 attributed) in
          let timer =
            if timer_total > 0. then
              100. *. Option.value ~default:0. (List.assoc_opt phase timers) /. timer_total
            else 0.
          in
          Printf.sprintf "  %-16s %6d  %6.1f%%  %6.1f%%" phase c sampled timer)
        self
    in
    let verdict =
      match profile_agreement report with
      | None -> [ "no phase-attributed samples" ]
      | Some pa ->
        let status =
          if pa.pa_no_timers then "NO-TIMERS (exact phase timers absent; not enforced)"
          else if pa.pa_low then "LOW-SAMPLES (not enforced)"
          else if pa.pa_ok then "AGREES"
          else "DISAGREES"
        in
        [
          Printf.sprintf "dominant phase %s: sampled %.1f%% vs timer %.1f%% -> %s" pa.pa_phase
            (100. *. pa.pa_sampled) (100. *. pa.pa_timer) status;
        ]
    in
    (header :: "folded stacks (samples):" :: folded)
    @ ("self time (sampled vs exact timers):"
       :: Printf.sprintf "  %-16s %6s  %8s  %7s" "phase" "ticks" "sampled" "timer"
       :: self_lines)
    @ verdict

(* --- span-file validation -------------------------------------------------- *)

(* A span file is a Chrome trace-event JSON array.  A run cut short by a
   signal loses the closing "]" (and possibly a partial tail line); repair
   like the JSONL loader does: drop the torn tail, strip a dangling
   comma, close the array. *)
let load_spans path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
    let parse s =
      match Json.of_string s with
      | Ok (Json.List l) -> Some l
      | Ok _ | Error _ -> None
    in
    let repaired () =
      let t = String.trim text in
      let t =
        match String.rindex_opt t '\n' with
        | Some i when not (String.length t > 0 && t.[String.length t - 1] = '}') ->
          String.sub t 0 i
        | _ -> t
      in
      let t = String.trim t in
      let t =
        if String.length t > 0 && t.[String.length t - 1] = ',' then
          String.sub t 0 (String.length t - 1)
        else t
      in
      parse (t ^ "\n]")
    in
    (match parse text with
    | Some l -> Ok l
    | None ->
      (match repaired () with
      | Some l -> Ok l
      | None -> Error (path ^ ": not a trace-event JSON array")))

type span_stats = {
  sp_events : int;
  sp_tracks : int;
  sp_max_depth : int;
  sp_last_ts : float;  (** microseconds *)
  sp_run_id : string option;
  sp_dropped : int;  (** begin events dropped at the writer's event cap *)
}

(* Check the structural invariants the writer promises: exactly one
   bsolo_run header carrying the shared epoch, and per-track (pid, tid)
   begin/end events that are well nested (E closes the innermost open B,
   matched by args.id) with non-decreasing timestamps.  Durable X / i / M
   events may be emitted from another domain onto a foreign track (e.g.
   proof flushes land on the main track), so they are exempt from the
   per-track clock check. *)
let validate_spans events =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let headers = ref [] in
  let stacks : (int * int, (int * string) list ref) Hashtbl.t = Hashtbl.create 8 in
  let clocks : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  let max_depth = ref 0 in
  let last_ts = ref 0. in
  let nevents = ref 0 in
  let dropped = ref 0 in
  let str m e = Option.bind (Json.member m e) Json.to_string_opt in
  let num m e = Option.bind (Json.member m e) Json.to_float in
  let arg m e = Option.bind (Json.member "args" e) (Json.member m) in
  List.iter
    (fun e ->
      incr nevents;
      let ph = Option.value ~default:"?" (str "ph" e) in
      let name = Option.value ~default:"?" (str "name" e) in
      let track =
        ( Option.value ~default:0 (Option.bind (Json.member "pid" e) Json.to_int),
          Option.value ~default:0 (Option.bind (Json.member "tid" e) Json.to_int) )
      in
      let ts = Option.value ~default:0. (num "ts" e) in
      if ts > !last_ts then last_ts := ts;
      (match ph with
      | "M" ->
        if name = "bsolo_run" then headers := e :: !headers
        else if name = "bsolo_dropped_events" then
          dropped :=
            !dropped + Option.value ~default:0 (Option.bind (arg "dropped" e) Json.to_int)
      | "B" | "E" ->
        if ts < 0. then violation "negative ts %.1f on %s %S" ts ph name;
        (match Hashtbl.find_opt clocks track with
        | Some prev when ts < prev ->
          violation "tid %d: clock went backwards (%.1f -> %.1f at %s %S)" (snd track) prev ts ph
            name
        | _ -> Hashtbl.replace clocks track ts);
        let stack =
          match Hashtbl.find_opt stacks track with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.add stacks track s;
            s
        in
        if ph = "B" then begin
          let id = Option.value ~default:0 (Option.bind (arg "id" e) Json.to_int) in
          let parent = Option.value ~default:0 (Option.bind (arg "parent" e) Json.to_int) in
          let enclosing = match !stack with (pid, _) :: _ -> pid | [] -> 0 in
          if parent <> enclosing then
            violation "tid %d: B %S claims parent %d but innermost open span is %d" (snd track)
              name parent enclosing;
          stack := (id, name) :: !stack;
          max_depth := max !max_depth (List.length !stack)
        end
        else begin
          match !stack with
          | [] -> violation "tid %d: E %S with no open span" (snd track) name
          | (id, bname) :: rest ->
            (match Option.bind (arg "id" e) Json.to_int with
            | Some eid when eid <> id ->
              violation "tid %d: E %S closes id %d but innermost open is %d (%S)" (snd track)
                name eid id bname
            | _ -> ());
            stack := rest
        end
      | _ -> ()))
    events;
  Hashtbl.iter
    (fun (_, tid) stack ->
      match !stack with
      | [] -> ()
      | open_spans ->
        violation "tid %d: %d span(s) still open at end of file (%s)" tid (List.length open_spans)
          (String.concat ", " (List.map (fun (_, n) -> n) open_spans)))
    stacks;
  (match !headers with
  | [ h ] ->
    if str "schema" (Option.value ~default:Json.Null (Json.member "args" h)) <> Some "bsolo-spans/1"
    then violation "bsolo_run header lacks schema bsolo-spans/1";
    if arg "epoch" h = None then violation "bsolo_run header lacks the shared epoch"
  | [] -> violation "no bsolo_run header event"
  | l -> violation "%d bsolo_run header events (want exactly one)" (List.length l));
  let run_id =
    match !headers with h :: _ -> Option.bind (arg "run_id" h) Json.to_string_opt | [] -> None
  in
  match !violations with
  | [] ->
    Ok
      {
        sp_events = !nevents;
        sp_tracks = Hashtbl.length clocks;
        sp_max_depth = !max_depth;
        sp_last_ts = !last_ts;
        sp_run_id = run_id;
        sp_dropped = !dropped;
      }
  | l -> Error (List.rev l)

let render_span_stats s =
  [
    Printf.sprintf "spans: %d events on %d track(s), max depth %d, %.3fs%s" s.sp_events s.sp_tracks
      s.sp_max_depth (s.sp_last_ts /. 1e6)
      (match s.sp_run_id with Some id -> ", run " ^ id | None -> "");
    "well-nested: yes (single shared epoch, per-track clocks monotone)";
  ]
  @
  if s.sp_dropped > 0 then
    [
      Printf.sprintf
        "WARNING: %d begin event(s) dropped at the writer's event cap (file is a truncated \
         prefix of the run)"
        s.sp_dropped;
    ]
  else []

(* --- heartbeat view -------------------------------------------------------- *)

module Snapshot = Telemetry.Snapshot

let heartbeat_header lines =
  List.find_opt (fun e -> schema_of e = Some "bsolo-heartbeat/1") lines

let heartbeat_snaps lines = List.filter_map Snapshot.decode lines

let render_snapshot (s : Snapshot.snap) =
  let best =
    match s.s_best with
    | Some (c, who) -> Printf.sprintf "  best %g (%s)" c who
    | None -> ""
  in
  let head = Printf.sprintf "t=%.1fs  seq %d%s" s.s_t s.s_seq best in
  let fmt_bound v = if Float.is_finite v then Printf.sprintf "%g" v else "-" in
  let member_lines =
    Printf.sprintf "  %-14s %-14s %8s %8s %8s %10s %10s" "member" "phase" "lb" "ub" "gap" "nodes"
      "rate/s"
    :: List.map
         (fun (m : Snapshot.member) ->
           let gap =
             if Float.is_finite m.m_lb && Float.is_finite m.m_ub then
               Printf.sprintf "%g" (m.m_ub -. m.m_lb)
             else "-"
           in
           Printf.sprintf "  %-14s %-14s %8s %8s %8s %10d %10.1f" m.m_name m.m_phase
             (fmt_bound m.m_lb) (fmt_bound m.m_ub) gap m.m_nodes m.m_node_rate)
         s.s_members
  in
  let delta_lines =
    match s.s_deltas with
    | [] -> []
    | ds ->
      let ds = List.sort (fun (_, a) (_, b) -> compare b a) ds in
      let top = List.filteri (fun i _ -> i < 5) ds in
      [
        "  deltas: "
        ^ String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s +%d" k v) top);
      ]
  in
  (head :: member_lines) @ delta_lines

let heartbeat_view lines =
  let header_line =
    match heartbeat_header lines with
    | Some h ->
      let run = Option.value ~default:"?" (Option.bind (Json.member "run_id" h) Json.to_string_opt) in
      let every = Option.value ~default:0. (Option.bind (Json.member "every" h) Json.to_float) in
      Printf.sprintf "heartbeat: run %s, every %gs" run every
    | None -> "heartbeat: (no header line)"
  in
  match heartbeat_snaps lines with
  | [] -> [ header_line; "no snapshots" ]
  | snaps ->
    let n = List.length snaps in
    let last = List.nth snaps (n - 1) in
    let gap_of (s : Snapshot.snap) =
      List.fold_left
        (fun acc (m : Snapshot.member) ->
          if Float.is_finite m.m_lb && Float.is_finite m.m_ub then
            let g = m.m_ub -. m.m_lb in
            match acc with Some b -> Some (min b g) | None -> Some g
          else acc)
        None s.s_members
    in
    let trend =
      let gaps = List.filter_map gap_of snaps in
      match gaps with
      | [] -> []
      | _ ->
        [
          Printf.sprintf "gap: %s" (String.concat " -> " (List.map (fun g -> Printf.sprintf "%g" g) gaps));
        ]
    in
    (header_line :: Printf.sprintf "%d snapshot(s), latest:" n :: render_snapshot last) @ trend

(* Structural checks over a heartbeat file, for the smoke suite: a
   header, at least two snapshots (the ticker writes one at start and one
   at stop), an end record, and per-member gaps that never widen — the
   profile cells keep max(lb) / min(ub), so a widening gap means a
   non-global bound leaked into a cell. *)
let heartbeat_check lines =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if heartbeat_header lines = None then violation "missing bsolo-heartbeat/1 header line";
  let snaps = heartbeat_snaps lines in
  let n = List.length snaps in
  if n < 2 then violation "only %d snapshot(s) (want at least 2)" n;
  if not (List.exists (fun e -> Json.member "end" e = Some (Json.Bool true)) lines) then
    violation "missing end record";
  let last_gap : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Snapshot.snap) ->
      List.iter
        (fun (m : Snapshot.member) ->
          if Float.is_finite m.m_lb && Float.is_finite m.m_ub then begin
            let g = m.m_ub -. m.m_lb in
            (match Hashtbl.find_opt last_gap m.m_name with
            | Some (prev, at) when g > prev +. 1e-9 ->
              violation "member %s: gap widened %g -> %g between t=%.1fs and t=%.1fs" m.m_name prev
                g at s.s_t
            | _ -> ());
            Hashtbl.replace last_gap m.m_name (g, s.s_t)
          end)
        s.s_members)
    snaps;
  let seqs = List.map (fun (s : Snapshot.snap) -> s.s_seq) snaps in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  if not (sorted seqs) then violation "snapshot seq numbers not strictly increasing";
  match !violations with
  | [] ->
    Ok
      [
        Printf.sprintf "heartbeat: %d snapshot(s), %d member(s), gaps non-widening" n
          (Hashtbl.length last_gap);
      ]
  | l -> Error (List.rev l)

(* [inspect.ml] shadows the library's interface module, so the
   forensics module must be re-exported to be visible to callers. *)
module Forensics = Forensics
