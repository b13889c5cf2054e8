(* Seconds-scale solver benchmark.

     solvebench.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's instances from --seed, then:

   - --trace 0 (end to end): times set-up several times, then solves
     every instance to a proved answer in passes while another pass
     fits in S seconds (after a single pass a few instances are solved
     again, so work repeatability is always checked), and reports time
     to optimum, time to the 1% target, primal integral, set-up time
     (all four at a reference machine speed, see Measure.speed_factors),
     solved share and heap peak;
   - --trace 1 (per layer): one pass of real solves for the counts,
     plus a replayed decision script whose calls into each layer are
     timed from here (see Replay), and a table attributing the solve
     time to layers.

   Every solve is checked: the model satisfies the problem, its cost is
   the printed cost, the optimum (or infeasibility) equals a reference
   obtained without bsolo's search (MILP, or a proof-checked run), proof
   logs pass Proof.Check, and the work counters repeat exactly across
   solves of an instance.  Any failure makes the command exit 1.  The
   last line of standard output is one JSON object: correct, attempted,
   failed, metrics. *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* --- result stamp ---------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Commit of the checkout, read from .git without running git; source
   trees exported without .git report "unknown". *)
let git_rev () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      try String.trim (read_file (Filename.concat ".git" r))
      with Sys_error _ ->
        let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
        match List.find_opt (fun l -> String.ends_with ~suffix:(" " ^ r) l) packed with
        | Some l -> List.hd (String.split_on_char ' ' l)
        | None -> "unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let json_str s = Printf.sprintf "%S" s

let stamp (w : Workload.t) ~seed ~trace (insts : Workload.instance list) =
  let ints xs = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]" in
  Printf.printf
    "stamp {\"workload\":%s,\"seed\":%d,\"held_out_seed\":%d,\"trace\":%d,\"rev\":%s,\"ocaml\":%s,\"nproc\":%d,\"family\":%s,\"scale\":%g,\"gen_seeds\":%s,\"vars\":%s,\"constraints\":%s}\n"
    (json_str w.name) seed w.held_out trace (json_str (git_rev ())) (json_str Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    (json_str (Workload.family_name w.family))
    w.scale
    (ints (List.map (fun (i : Workload.instance) -> i.gen_seed) insts))
    (ints (List.map (fun (i : Workload.instance) -> i.nvars) insts))
    (ints (List.map (fun (i : Workload.instance) -> i.nconstraints) insts))

(* --- the final line -------------------------------------------------------- *)

let result ~correct ~attempted ~failed metrics =
  let m =
    List.map (fun (name, value, unit) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name value unit) metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct attempted
    failed (String.concat "," m)

let print_metrics metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "  %-34s %14.6g %s\n" name value unit) metrics

(* --- references and the correctness gate ----------------------------------- *)

type judged = {
  inst : Workload.instance;
  reference : (Workload.answer, string) result;
  passes : Measure.solve list;  (** full passes, in order *)
  rechecks : Measure.solve list;  (** determinism re-solves after a single pass *)
}

(* Failure reasons of one solve: its own check, the reference
   comparison and work repeatability against the first pass. *)
let failures j (s : Measure.solve) =
  let first = List.hd j.passes in
  Measure.against s j.reference
  @
  if s.work = first.work then []
  else
    [
      Printf.sprintf "work differs from the first pass (%s)"
        (String.concat ", "
           (List.map2 (fun (n, a) (_, b) -> Printf.sprintf "%s %d vs %d" n a b) first.work s.work));
    ]

let judge_all answers insts passes rechecks =
  List.map
    (fun (inst : Workload.instance) ->
      {
        inst;
        reference = Workload.reference answers inst;
        passes = List.map (fun pass -> List.nth pass inst.index) passes;
        rechecks = (match List.nth_opt rechecks inst.index with Some s -> [ s ] | None -> []);
      })
    insts

let report_failures judged =
  List.iter
    (fun j ->
      List.iteri
        (fun p s ->
          List.iter
            (fun why -> Printf.printf "FAIL instance %d (gen seed %d) pass %d: %s\n" j.inst.index j.inst.gen_seed (p + 1) why)
            (failures j s))
        (j.passes @ j.rechecks))
    judged

(* One pass: every instance solved once, in order. *)
let solve_pass w insts =
  List.map
    (fun (inst : Workload.instance) -> Measure.solve w inst ~proof_path:(Workload.proof_path w inst.index))
    insts

(* Proof logs of the last pass, checked exactly (proof workloads only):
   per-instance check time and failure. *)
let check_proofs (w : Workload.t) judged =
  if not w.proof then []
  else
    List.map
      (fun j ->
        match j.reference with
        | Error e -> Error e
        | Ok reference -> Measure.check_proof j.inst (Option.get (Workload.proof_path w j.inst.index)) ~reference)
      judged

(* --- end to end ------------------------------------------------------------ *)

let setup_reps = 9

(* Instances solved a second time when only one full pass fits in the
   window, so that work repeatability is always checked. *)
let recheck = 8

let end_to_end (w : Workload.t) insts ~answers ~seconds =
  (* set-up, repeated; the median repetition is reported *)
  Gc.compact ();
  let setups = List.init setup_reps (fun _ -> List.map Measure.setup insts) in
  let n = List.length insts in
  (* every step is brought to the reference speed by the kernel samples
     taken around it, in the order the steps ran *)
  let setup_sums =
    let f = Array.of_list (Measure.speed_factors (List.concat_map (List.map (fun (s : Measure.setup) -> s.kernel_s)) setups)) in
    List.mapi (fun r reps -> Measure.sum (List.mapi (fun i s -> Measure.setup_total s *. f.((r * n) + i)) reps)) setups
  in
  Gc.compact ();
  let t0 = Measure.now () in
  let first = solve_pass w insts in
  (* the heap peak of one pass: later passes only grow the heap further,
     and how many of them fit depends on the machine's speed *)
  let peak = Measure.peak_heap_mb () in
  (* more full passes while another of the same length still fits the
     window *)
  let rec loop acc =
    let elapsed = Measure.now () -. t0 in
    let per_pass = elapsed /. float_of_int (List.length acc) in
    if elapsed +. per_pass <= seconds then loop (solve_pass w insts :: acc) else List.rev acc
  in
  let passes = loop [ first ] in
  let rechecks =
    if List.length passes > 1 then [] else solve_pass w (List.filteri (fun i _ -> i < recheck) insts)
  in
  let wall = Measure.sum (List.map (fun (s : Measure.solve) -> s.time) (List.concat passes)) in
  let passes, rechecks =
    let f = Array.of_list (Measure.speed_factors (List.map (fun (s : Measure.solve) -> s.kernel_s) (List.concat passes @ rechecks))) in
    ( List.mapi (fun p pass -> List.mapi (fun i s -> Measure.at_reference f.((p * n) + i) s) pass) passes,
      List.mapi (fun i s -> Measure.at_reference f.((List.length passes * n) + i) s) rechecks )
  in
  let judged = judge_all answers insts passes rechecks in
  let checks = check_proofs w judged in
  report_failures judged;
  List.iteri (fun i c -> match c with Error e -> Printf.printf "FAIL instance %d proof: %s\n" i e | Ok _ -> ()) checks;
  let all_solves = List.concat_map (fun j -> List.map (fun s -> j, s) (j.passes @ j.rechecks)) judged in
  let ok (j, s) = failures j s = [] in
  let attempted = List.length all_solves + List.length checks in
  let failed =
    List.length (List.filter (fun x -> not (ok x)) all_solves)
    + List.length (List.filter Result.is_error checks)
  in
  let solved = List.length (List.filter ok all_solves) in
  let reference j = match j.reference with Ok r -> r | Error _ -> Workload.Infeasible in
  let per_instance f = Measure.sum (List.map (fun j -> Measure.median (List.map (f j) j.passes)) judged) in
  let metrics =
    [
      "time_to_optimum_s", per_instance (fun _ (s : Measure.solve) -> s.time), "s";
      "setup_s", Measure.median setup_sums, "s";
      "time_to_target_s", per_instance (fun j s -> Measure.time_to_target ~reference:(reference j) s), "s";
      "primal_integral_s", per_instance (fun j s -> Measure.primal_integral ~reference:(reference j) s), "s";
      "solved_frac", float_of_int solved /. float_of_int (List.length all_solves), "ratio";
      "peak_heap_mb", peak, "MB";
    ]
  in
  let times f = List.map (fun (j, s) -> f j s) all_solves in
  List.iter
    (fun j ->
      let first = List.hd j.passes in
      Printf.printf "  instance %2d gen seed %10d: %3d vars %4d constraints, median %.4f s, %d nodes\n"
        j.inst.index j.inst.gen_seed j.inst.nvars j.inst.nconstraints
        (Measure.median (List.map (fun (s : Measure.solve) -> s.time) j.passes))
        (List.assoc "search.nodes" first.work))
    judged;
  Printf.printf "workload %s: %d instances x %d passes + %d re-solves = %d solves\n" w.name
    (List.length insts) (List.length passes) (List.length rechecks) (List.length all_solves);
  Printf.printf "  machine speed: solving passes took %.4f s of wall time, %.4f s at the reference speed\n" wall
    (Measure.sum (List.map (fun (s : Measure.solve) -> s.time) (List.concat passes)));
  Printf.printf "  per-solve time to optimum: %s\n" (Measure.describe ~unit:"s" (times (fun _ s -> s.time)));
  Printf.printf "  per-solve time to target:  %s\n"
    (Measure.describe ~unit:"s" (times (fun j s -> Measure.time_to_target ~reference:(reference j) s)));
  Printf.printf "  set-up per repetition:     %s\n" (Measure.describe ~unit:"s" setup_sums);
  (match List.filter_map Result.to_option checks with
  | [] -> ()
  | cs ->
    Printf.printf "  proof check per instance:  %s\n" (Measure.describe ~unit:"s" (List.map fst cs));
    Printf.printf "  check_s (Proof.Check.check_file, summed): %.6f s\n" (Measure.sum (List.map fst cs)));
  print_metrics metrics;
  failed, attempted, metrics

(* --- command line ---------------------------------------------------------- *)

let run_one (w : Workload.t) ~seed ~seconds ~trace =
  let answers =
    try Workload.load_answers w
    with Sys_error e ->
      Printf.eprintf "cannot read the recorded answers (run from the root of the tree): %s\n" e;
      exit 2
  in
  let insts =
    try Workload.instances w ~seed
    with Sys_error e ->
      Printf.eprintf "cannot read the recorded difficulty (run from the root of the tree): %s\n" e;
      exit 2
  in
  stamp w ~seed ~trace insts;
  if trace = 0 then end_to_end w insts ~answers ~seconds else Replay.per_layer w insts ~answers

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 24. and trace = ref 0 in
  let record = ref false and record_nodes = ref false in
  let spec =
    [
      "--workload", Arg.Set_string workload, "NAME workload to run, or all";
      "--seed", Arg.Set_int seed, "N seed the instances are generated from";
      "--seconds", Arg.Set_float seconds, "S measurement window for the solving passes";
      "--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)";
      ( "--record-answers",
        Arg.Set record,
        " compute the reference answers of the workload's instance pool into solvebench/answers/" );
      ( "--record-nodes",
        Arg.Set record_nodes,
        " record the search nodes of a default solve of every pool instance into solvebench/answers/, for the stratified draw" );
    ]
  in
  let usage = "solvebench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    if !workload = "all" then Workload.all else Option.to_list (Workload.find !workload)
  in
  if selected = [] then begin
    Printf.eprintf "unknown workload %S; one of: all, %s\n" !workload
      (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  mkdir_p Workload.workdir;
  if !record then begin
    List.iter Workload.record selected;
    exit 0
  end;
  if !record_nodes then begin
    List.iter
      (fun (w : Workload.t) ->
        let default = { w with options = Bsolo.Options.default } in
        Workload.record_nodes w ~nodes:(fun inst ->
            List.assoc "search.nodes" (Measure.solve default inst ~proof_path:None).work))
      selected;
    exit 0
  end;
  (* with several workloads, metric names are prefixed by the workload *)
  let prefix (w : Workload.t) = if List.length selected > 1 then w.name ^ "/" else "" in
  let failed, attempted, metrics =
    List.fold_left
      (fun (f, a, m) (w : Workload.t) ->
        let f', a', m' = run_one w ~seed:!seed ~seconds:!seconds ~trace:!trace in
        f + f', a + a', m @ List.map (fun (n, v, u) -> prefix w ^ n, v, u) m')
      (0, 0, []) selected
  in
  result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
