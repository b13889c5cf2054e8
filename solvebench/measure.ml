(* One timed solve, one timed set-up, and the order statistics the
   report is built from. *)

open Pbo

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks, q in [0, 1]. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(* The highest whole percentile that still has at least ten samples
   beyond it; [None] below 11 samples. *)
let tail_percentile n =
  let p = int_of_float (Float.floor (100. *. (1. -. (10. /. float_of_int n)))) in
  if n < 11 || p <= 50 then None else Some p

(* "median 0.123 s, p80 0.456 s, n=50" *)
let describe ~unit xs =
  let n = List.length xs in
  match tail_percentile n with
  | None -> Printf.sprintf "median %.4f %s, n=%d (too few samples for a tail percentile)" (median xs) unit n
  | Some p ->
    Printf.sprintf "median %.4f %s, p%d %.4f %s, n=%d" (median xs) unit p
      (quantile xs (float_of_int p /. 100.))
      unit n

(* --- machine speed ----------------------------------------------------------- *)

(* The benchmark shares a few cores with other tenants, whose load moves
   this machine's speed by 10-30% in phases of minutes: the same
   instance set took 14.4 s and then 19.3 s a few minutes apart.  So
   every timed step is preceded by a fixed reference computation, and
   times are reported at a reference speed (see [speed_factors]).  The
   kernel uses only the standard library, so no change to the solver
   can move it.  Its mix is the one the solver's time tracks: building
   and merge-sorting a list allocates short-lived blocks, chases
   pointers and calls the polymorphic compare.  Over six runs of one
   instance set whose wall time spread from 13.1 to 19.5 s, time over
   this kernel's median spread by 6%, against 23% for a dependent-load
   walk over a 1 MB array. *)

let kernel_input = List.init 3000 (fun i -> i * 7919 mod 3001)

(* Seconds one kernel run takes now. *)
let kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (List.sort compare (List.map Fun.id kernel_input)));
  now () -. t0

(* The kernel's median time on the machine the bounds were set on (a
   2-core 2.1 GHz Xeon), so that reported times read as seconds there. *)
let reference_kernel_s = 3e-4

(* Kernel samples within this many places of a step set its speed. *)
let window = 16

(* Time order of kernel samples -> the factor that brings the step
   timed after each sample to the reference speed:
   [reference_kernel_s] / the median of the samples within [window]
   places of it.  The median over a window rides out a sample that a
   context switch stretched, yet follows the speed through a run. *)
let speed_factors samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  List.init n (fun i ->
      let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
      reference_kernel_s /. median (Array.to_list (Array.sub a lo (hi - lo + 1))))

(* --- set-up ---------------------------------------------------------------- *)

type setup = {
  kernel_s : float;  (** the reference kernel, run just before *)
  parse_s : float;
  presolve_s : float;
  reductions : int;
  create_s : float;
  probe_s : float;
}

let setup_total s = s.parse_s +. s.presolve_s +. s.create_s +. s.probe_s

(* The four steps a solve pays before its search starts, each timed on
   its own: OPB parse, exact presolve, engine construction, root
   probing. *)
let setup (inst : Workload.instance) =
  let kernel_s = kernel () in
  let t0 = now () in
  let problem = Opb.parse_file inst.opb in
  let t1 = now () in
  let r = Bsolo.Preprocess.presolve problem in
  let t2 = now () in
  let engine = Engine.Solver_core.create r.Bsolo.Preprocess.reduced in
  let t3 = now () in
  if not (Engine.Solver_core.root_unsat engine) then ignore (Bsolo.Preprocess.probe engine);
  let t4 = now () in
  {
    kernel_s;
    parse_s = t1 -. t0;
    presolve_s = t2 -. t1;
    reductions = r.tightened + r.removed;
    create_s = t3 -. t2;
    probe_s = t4 -. t3;
  }

(* --- solve ----------------------------------------------------------------- *)

type solve = {
  error : string option;  (** why this solve failed, before the reference check *)
  answer : Workload.answer;  (** meaningful when [error = None] *)
  time : float;  (** call to proved optimum *)
  incs : (float * int) list;  (** incumbent times and costs, in order *)
  work : (string * int) list;  (** counters that must repeat exactly *)
  counters : (string * int) list;  (** the run's whole registry *)
  proof_steps : int;
  proof_bytes : int;
  flush_s : float;  (** proof-sink flush time *)
  kernel_s : float;  (** the reference kernel, run just before the solve *)
}

let solve_limit = 60.

let counter reg name = Option.value ~default:0 (Telemetry.Registry.find_counter reg name)

let counter_of s name = Option.value ~default:0 (List.assoc_opt name s.counters)

let work_names = [ "search.nodes"; "simplex.iterations"; "bcp.visits" ]

(* Solve one instance under the workload's options, checking the answer
   against the problem itself: every constraint holds and the model
   costs what the solver says. *)
let solve (w : Workload.t) (inst : Workload.instance) ~proof_path =
  let tel = Telemetry.Ctx.silent () in
  let sink = Option.map Proof.Sink.open_file proof_path in
  let flush_s = ref 0. in
  Option.iter
    (fun s -> Proof.Sink.set_flush_hook s (fun ~lines:_ ~seconds -> flush_s := !flush_s +. seconds))
    sink;
  let proof = Option.map (fun s -> Proof.create s inst.problem) sink in
  let options = { w.options with time_limit = Some solve_limit; telemetry = Some tel; proof } in
  let incs = ref [] in
  let kernel_s = kernel () in
  let t0 = now () in
  let on_incumbent _ c = incs := (now () -. t0, c) :: !incs in
  let outcome = Bsolo.Solver.solve_with_incumbent_hook ~options ~on_incumbent inst.problem in
  let time = now () -. t0 in
  Option.iter Proof.Sink.close sink;
  let error =
    match outcome.status, outcome.best with
    | Bsolo.Outcome.Optimal, Some (m, c) ->
      if not (Model.satisfies inst.problem m) then Some "reported model violates a constraint"
      else if Model.cost inst.problem m <> c then
        Some (Printf.sprintf "reported cost %d but the model costs %d" c (Model.cost inst.problem m))
      else None
    | Bsolo.Outcome.Unsatisfiable, _ -> None
    | Bsolo.Outcome.Unknown, _ -> Some (Printf.sprintf "no proved answer within %.0f s" solve_limit)
    | status, _ -> Some ("unexpected status " ^ Bsolo.Outcome.status_name status)
  in
  let proof_steps = match proof with Some p -> Proof.steps p | None -> 0 in
  let proof_bytes = match proof_path with Some p -> (Unix.stat p).Unix.st_size | None -> 0 in
  let reg = tel.Telemetry.Ctx.registry in
  {
    error;
    answer = Option.value ~default:Workload.Infeasible (Workload.answer_of outcome);
    time;
    incs = List.rev !incs;
    work = ("proof.steps", proof_steps) :: List.map (fun n -> n, counter reg n) work_names;
    counters = Telemetry.Registry.counters reg;
    proof_steps;
    proof_bytes;
    flush_s = !flush_s;
    kernel_s;
  }

(* A solve's times brought to the reference speed by [factor] (see
   [speed_factors]). *)
let at_reference factor s =
  { s with time = s.time *. factor; incs = List.map (fun (t, c) -> t *. factor, c) s.incs }

(* Why a solve fails the gate: its own check, or an answer other than
   the recorded reference. *)
let against s (reference : (Workload.answer, string) result) =
  match s.error, reference with
  | Some e, _ | None, Error e -> [ e ]
  | None, Ok r when s.answer <> r ->
    [ Printf.sprintf "answer %s differs from reference %s" (Workload.verdict s.answer) (Workload.verdict r) ]
  | None, Ok _ -> []

(* Relative primal gap of an incumbent cost against the reference; an
   infeasible instance has no incumbents, and its gap stays 1 until the
   proof. *)
let gap ~reference c =
  match reference with
  | Workload.Infeasible -> 1.
  | Workload.Optimum r ->
    let d = float_of_int (abs (c - r)) in
    let m = float_of_int (max (abs c) (abs r)) in
    if m = 0. then 0. else d /. m

(* Integral over the solve of the relative primal gap, taken as 1
   before the first incumbent. *)
let primal_integral ~reference s =
  let rec go acc t g = function
    | [] -> acc +. ((s.time -. t) *. g)
    | (t', c) :: rest -> go (acc +. ((t' -. t) *. g)) t' (gap ~reference c) rest
  in
  go 0. 0. 1. s.incs

(* Time of the first incumbent within 1% of the reference optimum (the
   solve time when there is none). *)
let time_to_target ~reference s =
  match List.find_opt (fun (_, c) -> gap ~reference c <= 0.01) s.incs with
  | Some (t, _) -> t
  | None -> s.time

(* Exact replay of a proof log; returns the check time. *)
let check_proof (inst : Workload.instance) path ~reference =
  let t0 = now () in
  let r = Proof.Check.check_file inst.problem path in
  let t = now () -. t0 in
  match r with
  | Ok s when s.Proof.Check.verdict = Workload.verdict reference -> Ok (t, s.Proof.Check.steps)
  | Ok s -> Error ("proof verdict " ^ s.Proof.Check.verdict)
  | Error msg -> Error ("proof rejected: " ^ msg)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
