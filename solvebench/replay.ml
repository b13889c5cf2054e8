(* The traced run: per-layer unit costs timed from outside the library.

   Unit costs come from spans recorded here around public calls, on a
   deterministic decision script replayed over each workload instance:
   a budgeted depth-first drive with bsolo's own policy (propagate,
   analyze conflicts, evaluate the workload's lower bound at
   conflict-free nodes once an incumbent exists, prune with the
   bound-conflict explanation, add the incumbent cuts at every complete
   assignment).  The drive records every engine call it makes; a second
   engine then replays that record and, at the same nodes, drives the
   LP layers directly (Residual.Full.sync, Simplex.Incremental.reoptimize,
   Cuts.Pool.separate / add_row), so simplex and separation get their
   own spans.

   How often each layer runs in a real solve comes from the solve's
   public counters.  Unit cost times real count, summed over the layers,
   is compared with the real solve time; the rest is reported as
   unattributed.  Nothing under lib/ is changed or instrumented. *)

open Pbo
module Core = Engine.Solver_core

let now = Unix.gettimeofday

(* --- spans ----------------------------------------------------------------- *)

type span = {
  id : int;  (** opening order *)
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, -1 at top level *)
}

(* Spans stay in memory (closing order, newest first) and are written
   out at the end. *)
type tracer = {
  enabled : bool;
  mutable spans : span list;
  mutable count : int;
  mutable open_ : int;  (** id of the innermost open span *)
}

let tracer enabled = { enabled; spans = []; count = 0; open_ = -1 }

let span tr name f =
  if not tr.enabled then f ()
  else begin
    let parent = tr.open_ in
    let id = tr.count in
    tr.count <- id + 1;
    tr.open_ <- id;
    let start = now () in
    let r = f () in
    let stop = now () in
    tr.open_ <- parent;
    tr.spans <- { id; name; start; stop; parent } :: tr.spans;
    r
  end

(* Self time and count per span name: durations minus the time their
   child spans cover. *)
let self_times tr =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) tr.spans;
  let totals = Hashtbl.create 16 in
  let add name dt dn =
    let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (t +. dt, n + dn)
  in
  List.iter
    (fun s ->
      add s.name (s.stop -. s.start) 1;
      if s.parent >= 0 then add (Hashtbl.find by_id s.parent).name (s.start -. s.stop) 0)
    tr.spans;
  fun name -> Option.value ~default:(0., 0) (Hashtbl.find_opt totals name)

let write_spans tr path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id,name,start_s,end_s,parent\n";
      let spans = List.sort (fun a b -> compare a.id b.id) tr.spans in
      let t0 = match spans with [] -> 0. | s :: _ -> s.start in
      List.iter
        (fun s ->
          Printf.fprintf oc "%d,%s,%.9f,%.9f,%d\n" s.id s.name (s.start -. t0) (s.stop -. t0) s.parent)
        spans)

(* --- the decision script --------------------------------------------------- *)

type action =
  | Probe
  | Decide of Lit.t
  | Propagate of bool  (** conflict found *)
  | Resolve of Core.cid
  | Learn of Lit.t list
  | Add of Constr.t
  | Lb_node

type drive = {
  actions : action list;  (** in order *)
  visits : int;  (** BCP visits during the drive *)
  lb_evals : int;
  prunes : int;
  incumbents : int;
  cuts_added : int;
  constraints : int;  (** constraints the engine holds at the end *)
  elapsed : float;
}

(* The script covers the first [replayed] instances of the workload, at
   most [budget_nodes] nodes each: enough calls per layer for stable
   unit costs, while the traced run stays well inside its time limit. *)
let budget_nodes = 400
let replayed = 16

let bcp_visits e = Telemetry.Counter.get (Core.bcp_stats e).Core.b_visits

let cut_config (w : Workload.t) engine =
  match w.options.lb_method, w.options.cuts with
  | Bsolo.Options.Lpr, (Bsolo.Options.Cuts_tree | Bsolo.Options.Cuts_root) ->
    let pool = Cuts.Pool.create (Core.telemetry engine) in
    Cuts.Pool.note_implications pool (Cuts.mine_implications engine);
    let mode = if w.options.cuts = Bsolo.Options.Cuts_root then Cuts.Root else Cuts.Tree in
    Some { Cuts.pool; mode; rounds = max 1 w.options.cut_rounds }
  | _ -> None

(* The problem the solver's engine is built from: strengthened (unless
   off, or proof logging forces it off), then presolved. *)
let strengthens (w : Workload.t) = w.options.constraint_strengthening && not w.proof

let prepared (w : Workload.t) (inst : Workload.instance) =
  let p = if strengthens w then fst (Bsolo.Strengthen.apply inst.problem) else inst.problem in
  (Bsolo.Preprocess.presolve p).reduced

(* Budgeted bsolo-policy drive over one instance; every engine call is
   recorded, and timed under [tr]. *)
let drive (w : Workload.t) tr problem =
  let t0 = now () in
  let e = Core.create problem in
  let acts = ref [] in
  let act a = acts := a :: !acts in
  let visits = ref 0 and lb_evals = ref 0 and prunes = ref 0 and incumbents = ref 0 and added = ref 0 in
  let propagate () =
    let v0 = bcp_visits e in
    let r = span tr "engine.propagate" (fun () -> Core.propagate e) in
    visits := !visits + (bcp_visits e - v0);
    act (Propagate (r <> None));
    r
  in
  let analyze f a =
    act a;
    span tr "engine.analyze" f
  in
  if not (Core.root_unsat e) then begin
    act Probe;
    ignore (Bsolo.Preprocess.probe e)
  end;
  let cuts = if Core.root_unsat e then None else span tr "cuts.mine" (fun () -> cut_config w e) in
  let inc = lazy (Lowerbound.Lpr.make ?cuts e) in
  let upper = ref (Problem.max_cost_sum problem + 1) in
  let lb () =
    let cap = !upper - Core.path_cost e in
    match w.options.lb_method with
    | Bsolo.Options.Mis -> span tr "lowerbound.mis" (fun () -> Lowerbound.Mis.compute e)
    | _ -> span tr "lowerbound.lpr" (fun () -> Lowerbound.Lpr.compute_inc (Lazy.force inc) ~cap)
  in
  let incumbent_cuts () =
    span tr "core.incumbent_cuts" (fun () ->
        let p = Core.problem e in
        let cuts = Bsolo.Knapsack.upper_cut p ~upper:!upper :: Bsolo.Knapsack.cardinality_inferences p ~upper:!upper in
        List.fold_left
          (fun conflict norm ->
            match norm with
            | Constr.Constr c -> (
              incr added;
              act (Add c);
              match conflict, Core.add_constraint_dynamic e c with
              | Some _, _ -> conflict
              | None, found -> found)
            | Constr.Trivial_true | Constr.Trivial_false -> conflict)
          None cuts)
  in
  let rec search nodes =
    if nodes < budget_nodes && not (Core.root_unsat e) then
      match propagate () with
      | Some ci -> (
        match analyze (fun () -> Core.resolve_conflict e ci) (Resolve ci) with
        | Core.Root_conflict -> ()
        | Core.Backjump _ -> search nodes)
      | None ->
        if Core.all_assigned e then begin
          incr incumbents;
          upper := Core.path_cost e;
          let next =
            match incumbent_cuts () with
            | Some ci -> analyze (fun () -> Core.resolve_conflict e ci) (Resolve ci)
            | None ->
              let omega = List.map Lit.negate (Core.true_cost_lits e) in
              analyze (fun () -> Core.learn_false_clause e omega) (Learn omega)
          in
          match next with Core.Root_conflict -> () | Core.Backjump _ -> search nodes
        end
        else begin
          let lower =
            if !incumbents = 0 then Lowerbound.Bound.none
            else begin
              act Lb_node;
              incr lb_evals;
              lb ()
            end
          in
          if !incumbents > 0 && Core.path_cost e + lower.value >= !upper then begin
            incr prunes;
            let omega =
              span tr "core.explain" (fun () ->
                  let omega_pp = List.map Lit.negate (Core.true_cost_lits e) in
                  List.sort_uniq Lit.compare (List.rev_append omega_pp (Lazy.force lower.omega_pl)))
            in
            match analyze (fun () -> Core.learn_false_clause e omega) (Learn omega) with
            | Core.Root_conflict -> ()
            | Core.Backjump _ -> search (nodes + 1)
          end
          else begin
            let decided =
              span tr "search.decide" (fun () ->
                  let hinted =
                    match lower.branch_hint with
                    | Some v when Value.equal (Core.value_var e v) Value.Unknown -> Some v
                    | Some _ | None -> None
                  in
                  match (match hinted with Some v -> Some v | None -> Core.next_branch_var e) with
                  | None -> None
                  | Some v ->
                    let l = Lit.make v (Core.phase_hint e v) in
                    Core.decide e l;
                    Some l)
            in
            match decided with
            | None -> ()
            | Some l ->
              act (Decide l);
              search (nodes + 1)
          end
        end
  in
  search 0;
  let constraints = ref 0 in
  Core.iter_constraints e (fun ~learned:_ _ -> incr constraints);
  {
    actions = List.rev !acts;
    visits = !visits;
    lb_evals = !lb_evals;
    prunes = !prunes;
    incumbents = !incumbents;
    cuts_added = !added;
    constraints = !constraints;
    elapsed = now () -. t0;
  }

(* --- the LP layers, driven directly on a replay of the script -------------- *)

type lp = {
  mutable reopts : int;
  mutable rebuilt : int;
  mutable rounds : int;
  mutable useful : int;
  mutable evals : int;  (** evaluations that re-solved the LP *)
  mutable diverged : bool;
  mutable samples : (float * int) list;  (** per reoptimize: seconds, iterations *)
}

let lp_replay (w : Workload.t) tr problem actions =
  let stats =
    { reopts = 0; rebuilt = 0; rounds = 0; useful = 0; evals = 0; diverged = false; samples = [] }
  in
  let e = Core.create problem in
  let cuts = ref None in
  let lp = ref None in
  let state () =
    match !lp with
    | Some s -> s
    | None ->
      let s =
        Option.map
          (fun (f : Lowerbound.Residual.Full.t) ->
            let sx = Simplex.Incremental.create f.lp in
            Array.iteri
              (fun v value ->
                match value with
                | Value.True -> Simplex.Incremental.fix sx v 1.
                | Value.False -> Simplex.Incremental.fix sx v 0.
                | Value.Unknown -> ())
              f.mirror;
            f, sx)
          (Lowerbound.Residual.Full.build e)
      in
      lp := Some s;
      s
  in
  let solve sx =
    let t0 = now () in
    let out = span tr "simplex.reoptimize" (fun () -> Simplex.Incremental.reoptimize sx) in
    let dt = now () -. t0 in
    let info = Simplex.Incremental.last_info sx in
    stats.samples <- (dt, info.iters) :: stats.samples;
    stats.reopts <- stats.reopts + 1;
    if info.rebuilt then stats.rebuilt <- stats.rebuilt + 1;
    out
  in
  let lb_node () =
    match if w.options.lb_method = Bsolo.Options.Lpr then state () else None with
    | None -> ()
    | Some (full, sx) ->
      span tr "lp.eval" (fun () ->
          let edits = Lowerbound.Residual.Full.sync full e sx in
          if edits.total > 0 || stats.evals = 0 then begin
            stats.evals <- stats.evals + 1;
            let rec go round out =
              match out, !cuts with
              | Simplex.Optimal sol, Some (cfg : Cuts.config)
                when round < cfg.rounds
                     && (cfg.mode = Cuts.Tree || (cfg.mode = Cuts.Root && Core.decision_level e = 0)) -> (
                stats.rounds <- stats.rounds + 1;
                let fresh =
                  span tr "cuts.separate" (fun () ->
                      Cuts.Pool.separate cfg.pool e ~xval:(fun v -> sol.Simplex.x.(v)))
                in
                match fresh with
                | [] -> age (Simplex.Optimal sol)
                | entries ->
                  stats.useful <- stats.useful + 1;
                  span tr "cuts.separate" (fun () ->
                      List.iter
                        (fun (en : Cuts.Pool.entry) ->
                          en.row <- Simplex.Incremental.add_row sx (Cuts.lp_row en.cut.constr))
                        entries);
                  go (round + 1) (solve sx))
              | out, _ -> age out
            and age out =
              match out, !cuts with
              | Simplex.Optimal sol, Some (cfg : Cuts.config) ->
                span tr "cuts.separate" (fun () ->
                    Cuts.Pool.observe cfg.pool ~duals:sol.duals;
                    List.iter
                      (fun (en : Cuts.Pool.entry) ->
                        if abs_float sol.duals.(en.row) <= 1e-9 then begin
                          Simplex.Incremental.drop_row sx en.row;
                          Cuts.Pool.note_evicted cfg.pool en
                        end)
                      (Cuts.Pool.evictable cfg.pool))
              | _ -> ()
            in
            go 0 (solve sx)
          end)
  in
  let rec run = function
    | [] -> ()
    | _ when stats.diverged -> ()
    | a :: rest ->
      (match a with
      | Probe ->
        ignore (Bsolo.Preprocess.probe e);
        cuts := if Core.root_unsat e then None else cut_config w e
      | Decide l -> Core.decide e l
      | Propagate conflict -> if (Core.propagate e <> None) <> conflict then stats.diverged <- true
      | Resolve ci -> ignore (Core.resolve_conflict e ci)
      | Learn lits -> ignore (Core.learn_false_clause e lits)
      | Add c -> ignore (Core.add_constraint_dynamic e c)
      | Lb_node -> lb_node ());
      run rest
  in
  run actions;
  stats

(* --- per-layer report ------------------------------------------------------ *)

let ratio a b = if b = 0. then 0. else a /. b

(* Least-squares fit of reoptimize time = fixed + per_pivot * iterations:
   a warm re-solve takes only a few pivots, so its fixed cost (bound
   edits, pricing set-up, solution extraction) would otherwise be
   charged to the pivots.  Falls back to the plain average per pivot
   when the fit is degenerate or negative. *)
let fit samples =
  let n = float_of_int (List.length samples) in
  let sx = List.fold_left (fun a (_, k) -> a +. float_of_int k) 0. samples in
  let sy = List.fold_left (fun a (t, _) -> a +. t) 0. samples in
  let sxx = List.fold_left (fun a (_, k) -> a +. (float_of_int k ** 2.)) 0. samples in
  let sxy = List.fold_left (fun a (t, k) -> a +. (t *. float_of_int k)) 0. samples in
  let d = (n *. sxx) -. (sx *. sx) in
  let slope = ratio ((n *. sxy) -. (sx *. sy)) d in
  let fixed = ratio (sy -. (slope *. sx)) n in
  if d <= 0. || slope <= 0. || fixed < 0. then 0., ratio sy sx else fixed, slope

let per_layer (w : Workload.t) (insts : Workload.instance list) ~answers =
  (* set-up steps, median of three per instance *)
  let setups = List.map (fun inst -> List.init 3 (fun _ -> Measure.setup inst)) insts in
  let step f = Measure.sum (List.map (fun reps -> Measure.median (List.map f reps)) setups) in
  let parse_s = step (fun s -> s.Measure.parse_s)
  and presolve_s = step (fun s -> s.Measure.presolve_s)
  and create_s = step (fun s -> s.Measure.create_s)
  and probe_s = step (fun s -> s.Measure.probe_s) in
  let reductions = List.fold_left (fun acc reps -> acc + (List.hd reps).Measure.reductions) 0 setups in
  (* real solves: how often each layer runs *)
  let proof_path (inst : Workload.instance) = Workload.proof_path w inst.index in
  let real = List.map (fun inst -> inst, Measure.solve w inst ~proof_path:(proof_path inst)) insts in
  let failed = ref 0 and attempted = ref 0 in
  let fail inst why =
    incr failed;
    Printf.printf "FAIL instance %d (gen seed %d): %s\n" inst.Workload.index inst.Workload.gen_seed why
  in
  let check_s = ref 0. and check_steps = ref 0 in
  List.iter
    (fun ((inst : Workload.instance), (s : Measure.solve)) ->
      incr attempted;
      let reference = Workload.reference answers inst in
      (match Measure.against s reference with [] -> () | why -> fail inst (String.concat "; " why));
      match proof_path inst, reference with
      | None, _ | _, Error _ -> ()
      | Some p, Ok r -> (
        incr attempted;
        match Measure.check_proof inst p ~reference:r with
        | Ok (t, steps) ->
          check_s := !check_s +. t;
          check_steps := !check_steps + steps
        | Error e -> fail inst e))
    real;
  let total f = List.fold_left (fun acc (_, s) -> acc + f s) 0 real in
  let count name = total (fun s -> Measure.counter_of s name) in
  let t_real = List.fold_left (fun acc (_, (s : Measure.solve)) -> acc +. s.time) 0. real in
  let incumbents_real = total (fun s -> List.length s.Measure.incs) in
  let proof_steps = total (fun s -> s.Measure.proof_steps) in
  let flush_s = List.fold_left (fun acc (_, (s : Measure.solve)) -> acc +. s.flush_s) 0. real in
  let strengthen_s =
    if strengthens w then
      Measure.sum
        (List.map
           (fun (inst : Workload.instance) ->
             Measure.median
               (List.init 3 (fun _ ->
                    let t0 = now () in
                    ignore (Bsolo.Strengthen.apply inst.problem);
                    now () -. t0)))
           insts)
    else 0.
  in
  (* the script: untraced and traced drives alternate (overhead), then
     the LP replay of the traced drive's record *)
  let problems = List.map (prepared w) (List.filteri (fun i _ -> i < replayed) insts) in
  let drive_all t = List.map (drive w t) problems in
  let elapsed ds = Measure.sum (List.map (fun d -> d.elapsed) ds) in
  let rec alternate n t_u t_t =
    let u = drive_all (tracer false) in
    let tr = tracer true in
    let ds = drive_all tr in
    let t_u = elapsed u :: t_u and t_t = elapsed ds :: t_t in
    if n > 1 then alternate (n - 1) t_u t_t else tr, ds, t_u, t_t
  in
  let tr, drives, t_untraced, t_traced = alternate 2 [] [] in
  let lptr = tracer true in
  let lps = List.map2 (fun p d -> lp_replay w lptr p d.actions) problems drives in
  List.iteri
    (fun i l ->
      incr attempted;
      if l.diverged then fail (List.nth insts i) "LP replay diverged from the recorded script")
    lps;
  write_spans tr (Filename.concat Workload.workdir (w.name ^ "-spans.csv"));
  write_spans lptr (Filename.concat Workload.workdir (w.name ^ "-lp-spans.csv"));
  let self = self_times tr and lpself = self_times lptr in
  let sumd f = List.fold_left (fun acc d -> acc + f d) 0 drives in
  let suml f = List.fold_left (fun acc l -> acc + f l) 0 lps in
  let prop_s, _ = self "engine.propagate" in
  let an_s, an_n = self "engine.analyze" in
  let dec_s, dec_n = self "search.decide" in
  let exp_s, exp_n = self "core.explain" in
  let mine_s, mine_n = self "cuts.mine" in
  let inc_s, inc_n = self "core.incumbent_cuts" in
  let lpr_s, lpr_n = self "lowerbound.lpr" in
  let mis_s, mis_n = self "lowerbound.mis" in
  let sx_s, sx_n = lpself "simplex.reoptimize" in
  let cut_s, _ = lpself "cuts.separate" in
  let ns_per_visit = ratio (prop_s *. 1e9) (float_of_int (sumd (fun d -> d.visits))) in
  let us_per_conflict = ratio (an_s *. 1e6) (float_of_int an_n) in
  let us_per_incumbent = ratio (inc_s *. 1e6) (float_of_int inc_n) in
  let lpr_us = ratio (lpr_s *. 1e6) (float_of_int lpr_n) in
  let mis_us = ratio (mis_s *. 1e6) (float_of_int mis_n) in
  let rounds = suml (fun l -> l.rounds) in
  let per_call_s, per_pivot_s = fit (List.concat_map (fun l -> l.samples) lps) in
  let ms_per_round = ratio (cut_s *. 1e3) (float_of_int rounds) in
  let lp_evals = suml (fun l -> l.evals) in
  (* real counts *)
  let visits_real = count "bcp.visits" and conflicts_real = count "engine.conflicts" in
  let lb_calls_real = count "search.lb_calls" and iters_real = count "simplex.iterations" in
  let reopts_real = count "simplex.calls" in
  let lp_evals_real = count "lpr.warm_hits" + count "lpr.cold_falls" in
  let rounds_real = ratio (float_of_int rounds) (float_of_int lp_evals) *. float_of_int lp_evals_real in
  (* attribution of the real solve time *)
  let per_unit t n = ratio t (float_of_int n) in
  let setup_row =
    strengthen_s +. presolve_s +. create_s +. probe_s
    +. (per_unit mine_s mine_n *. float_of_int (List.length insts))
  in
  let simplex_row = (per_call_s *. float_of_int reopts_real) +. (per_pivot_s *. float_of_int iters_real) in
  let cuts_row = ms_per_round *. rounds_real /. 1e3 in
  let lb_row =
    Float.max 0.
      ((((lpr_us +. mis_us) *. float_of_int lb_calls_real) /. 1e6) -. simplex_row -. cuts_row)
  in
  let rows =
    [
      "set-up", setup_row, List.length insts, "instance";
      "search.decide", per_unit dec_s dec_n *. float_of_int (count "engine.decisions"), count "engine.decisions", "decision";
      "core.explain", per_unit exp_s exp_n *. float_of_int (count "engine.bound_conflicts"), count "engine.bound_conflicts", "bound conflict";
      "engine.propagate", ns_per_visit *. float_of_int visits_real /. 1e9, visits_real, "visit";
      "engine.analyze", us_per_conflict *. float_of_int conflicts_real /. 1e6, conflicts_real, "conflict";
      "core.incumbent_cuts", us_per_incumbent *. float_of_int incumbents_real /. 1e6, incumbents_real, "incumbent";
      "lowerbound (self)", lb_row, lb_calls_real, "evaluation";
      "simplex", simplex_row, iters_real, "pivot";
      "cuts", cuts_row, int_of_float (Float.round rounds_real), "round (estimated count)";
      "proof write", flush_s, proof_steps, "step";
    ]
  in
  let attributed = List.fold_left (fun acc (_, t, _, _) -> acc +. t) 0. rows in
  let unattributed = t_real -. attributed in
  Printf.printf "workload %s: layer table over %d real solves (%.3f s)\n" w.name (List.length insts) t_real;
  Printf.printf "  %-34s %10s %7s %12s %12s  %s\n" "layer" "self s" "share" "count" "unit cost" "per";
  List.iter
    (fun (name, t, n, unit) ->
      Printf.printf "  %-34s %10.4f %6.1f%% %12d %10.3f us  %s\n" name t (100. *. ratio t t_real) n
        (ratio (t *. 1e6) (float_of_int n)) unit)
    rows;
  Printf.printf "  %-34s %10.4f %6.1f%%\n" "unattributed" unattributed (100. *. ratio unattributed t_real);
  let t_u = Measure.median t_untraced and t_t = Measure.median t_traced in
  let metrics =
    [
      "pbo.parse_s", parse_s, "s";
      "core.presolve_s", presolve_s, "s";
      "core.presolve_reductions", float_of_int reductions, "count";
      "engine.create_s", create_s, "s";
      "core.probe_s", probe_s, "s";
      "engine.propagate_ns_per_visit", ns_per_visit, "ns";
      "engine.visits", float_of_int visits_real, "count";
      "engine.analyze_us_per_conflict", us_per_conflict, "us";
      "engine.conflicts", float_of_int conflicts_real, "count";
      "engine.arena_constraints", float_of_int (sumd (fun d -> d.constraints)), "count";
      "core.incumbent_cuts_us", us_per_incumbent, "us";
      "core.incumbent_cuts_added", float_of_int (sumd (fun d -> d.cuts_added)), "count";
      "lowerbound.lpr_us_per_eval", lpr_us, "us";
      "lowerbound.mis_us_per_eval", mis_us, "us";
      "lowerbound.prune_ratio", ratio (float_of_int (sumd (fun d -> d.prunes))) (float_of_int (sumd (fun d -> d.lb_evals))), "ratio";
      "search.nodes", float_of_int (count "search.nodes"), "count";
      "search.lb_calls", float_of_int lb_calls_real, "count";
      "simplex.us_per_pivot", per_pivot_s *. 1e6, "us";
      "simplex.us_per_reoptimize", ratio (sx_s *. 1e6) (float_of_int sx_n), "us";
      "simplex.iters", float_of_int iters_real, "count";
      "simplex.cold_ratio", ratio (float_of_int (suml (fun l -> l.rebuilt))) (float_of_int (suml (fun l -> l.reopts))), "ratio";
      "cuts.separate_ms_per_round", ms_per_round, "ms";
      "cuts.rounds", float_of_int rounds, "count";
      "cuts.useful_ratio", ratio (float_of_int (suml (fun l -> l.useful))) (float_of_int rounds), "ratio";
      "proof.write_us_per_step", ratio (flush_s *. 1e6) (float_of_int proof_steps), "us";
      "proof.steps", float_of_int proof_steps, "count";
      "proof.bytes", float_of_int (total (fun s -> s.Measure.proof_bytes)), "bytes";
      "proof.check_us_per_step", ratio (!check_s *. 1e6) (float_of_int !check_steps), "us";
      "proof.check_s", !check_s, "s";
      "trace.overhead_pct", 100. *. ratio (t_t -. t_u) t_u, "%";
      "trace.unattributed_pct", 100. *. ratio unattributed t_real, "%";
    ]
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit) metrics;
  !failed, !attempted, metrics
