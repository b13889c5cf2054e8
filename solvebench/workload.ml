(* Workload definitions, instance generation and reference answers.

   Every instance is generated in-tree from the run's --seed; the solver
   only ever sees the generated problem (and, for set-up timing, its OPB
   round trip).  Instance difficulty varies a lot from one generator
   seed to the next (per-instance times spread over 3x at a fixed
   scale), so a workload sums over many moderate instances rather than
   timing one large one: that keeps the run-to-run spread of the sums
   inside the metric bounds. *)

open Pbo

type family =
  | Synth
  | Knap

type reference_method =
  | Milp  (** the LP-based branch-and-bound engine, which shares no search code with bsolo *)
  | Certified
      (** a default-configuration bsolo run whose proof log is replayed
          by [Proof.Check] with exact arithmetic *)

type t = {
  name : string;
  family : family;
  scale : float;
  count : int;  (** instances per pass *)
  options : Bsolo.Options.t;
  proof : bool;  (** solve with a proof log, then check it *)
  reference_method : reference_method;
  held_out : int;  (** a seed kept out of every figure that shaped the workload, for confirming later claims *)
}

type instance = {
  index : int;
  gen_seed : int;
  problem : Problem.t;
  opb : string;  (** path of the OPB round trip, for parse timing *)
  nvars : int;
  nconstraints : int;
}

let family_name = function Synth -> "synth" | Knap -> "knap"

let all =
  [
    (* Simplex, propagation and incumbent cuts carry the time; separation
       runs but rarely applies a cut, so separation changes should not
       show here. *)
    {
      name = "synth-lpr";
      family = Synth;
      scale = 0.5;
      count = 192;
      options = Bsolo.Options.default;
      proof = false;
      reference_method = Milp;
      held_out = 9001;
    };
    (* General coefficients: simplex and cover/clique separation carry the
       search, BCP does little. *)
    {
      name = "knap-cuts";
      family = Knap;
      scale = 0.7;
      count = 320;
      options = Bsolo.Options.default;
      proof = false;
      reference_method = Certified;
      held_out = 9002;
    };
    (* No LP at all: MIS, BCP and conflict analysis.  The control where a
       simplex or cuts change must not show. *)
    {
      name = "synth-mis";
      family = Synth;
      scale = 0.5;
      count = 192;
      options = Bsolo.Options.with_lb Bsolo.Options.Mis;
      proof = false;
      reference_method = Milp;
      held_out = 9003;
    };
    (* The synth-lpr search with proof logging, each log then checked
       exactly: proof writing and checking show here. *)
    {
      name = "synth-proof";
      family = Synth;
      scale = 0.5;
      count = 192;
      options = Bsolo.Options.default;
      proof = true;
      reference_method = Milp;
      held_out = 9004;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Generated instances, proof logs and spans, relative to the directory
   the benchmark runs in. *)
let workdir = ".solvebench"

let proof_path w index =
  if w.proof then Some (Filename.concat workdir (Printf.sprintf "%s-%d.pbp" w.name index)) else None

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale +. 0.5))

(* Same parameterisation as [genpb FAMILY --scale S]. *)
let generate family scale gen_seed =
  let s = scaled scale in
  match family with
  | Synth ->
    Benchgen.Synthesis.generate
      ~params:{ Benchgen.Synthesis.default with nodes = s 28; support_cells = s 14 }
      gen_seed
  | Knap ->
    Benchgen.Knapsack.generate
      ~params:{ Benchgen.Knapsack.default with items = s 66; rows = s 31 }
      gen_seed

(* Instances come from a pool of generator seeds 1..pool_size whose
   reference answers are recorded once (see [record]); --seed draws a
   workload's instances from the pool.  The draw is stratified by
   difficulty: the pool, ordered by the search nodes a default solve
   takes (recorded once, see [record_nodes]), is cut into [count]
   strata of consecutive seeds, and the draw takes one seed from each.
   Every pool seed is still drawn with the same probability, but the
   sum over a workload no longer depends on how many of the rare hard
   instances a seed happens to catch: estimated from per-instance
   times, the draw alone spreads the knap sum by 2.6% (quartile
   distance over median), against 5.8% for a simple random draw.  The
   draw depends on the
   family, scale and count, not on the workload name: synth-lpr,
   synth-mis and synth-proof solve the same instances for a given
   --seed, so their figures compare layer for layer. *)
let pool_size = 2000

(* Recorded difficulty of each pool seed, one file per family and scale:
   a line "GEN_SEED NODES" per pool seed. *)
let nodes_path w = Printf.sprintf "solvebench/answers/%s-%g.nodes" (family_name w.family) w.scale

(* Pool seeds from the easiest to the hardest. *)
let load_order w =
  let nodes = Hashtbl.create pool_size in
  In_channel.with_open_text (nodes_path w) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match List.map int_of_string_opt (String.split_on_char ' ' line) with
         | [ Some seed; Some n ] -> Hashtbl.replace nodes seed n
         | _ -> ());
  let pool = List.init pool_size (fun i -> i + 1) in
  List.iter
    (fun seed -> if not (Hashtbl.mem nodes seed) then raise (Sys_error (Printf.sprintf "%s: no nodes for generator seed %d" (nodes_path w) seed)))
    pool;
  Array.of_list (List.stable_sort (fun a b -> compare (Hashtbl.find nodes a) (Hashtbl.find nodes b)) pool)

let gen_seeds w seed =
  let order = load_order w in
  let rng = Random.State.make [| seed; Hashtbl.hash (family_name w.family, w.scale) |] in
  let picks =
    Array.init w.count (fun k ->
        let lo = k * pool_size / w.count and hi = (k + 1) * pool_size / w.count in
        order.(lo + Random.State.int rng (hi - lo)))
  in
  (* solved in a shuffled order, so that a pass does not ramp from the
     easiest instance to the hardest *)
  for i = w.count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = picks.(i) in
    picks.(i) <- picks.(j);
    picks.(j) <- t
  done;
  Array.to_list picks

let instance w index gen_seed =
  let problem = generate w.family w.scale gen_seed in
  let opb = Filename.concat workdir (Printf.sprintf "%s-%d.opb" w.name index) in
  Opb.write_file opb problem;
  { index; gen_seed; problem; opb; nvars = Problem.nvars problem; nconstraints = Array.length (Problem.constraints problem) }

let instances w ~seed = List.mapi (instance w) (gen_seeds w seed)

(* Computes and writes the difficulty of the whole pool, given the
   search nodes a solve of one instance takes. *)
let record_nodes w ~nodes =
  Out_channel.with_open_text (nodes_path w) (fun oc ->
      Printf.fprintf oc "# %s scale %g, generator seeds 1..%d: seed, search nodes of a default bsolo solve\n"
        (family_name w.family) w.scale pool_size;
      for seed = 1 to pool_size do
        Printf.fprintf oc "%d %d\n%!" seed (nodes (instance w 0 seed))
      done)

(* --- reference answers ----------------------------------------------------- *)

(* A proved answer.  The knap generator can emit an infeasible instance
   (rows with negated literals defeat its all-ones witness, e.g. pool
   seed 279 at scale 0.7), so proved infeasibility is an answer too,
   checked against the reference like an optimum. *)
type answer =
  | Optimum of int
  | Infeasible

(* The proof checker's rendering of the same conclusion. *)
let verdict = function Optimum c -> Printf.sprintf "OPTIMAL %d" c | Infeasible -> "UNSAT"

let answer_of (outcome : Bsolo.Outcome.t) =
  match outcome.status, outcome.best with
  | Bsolo.Outcome.Optimal, Some (_, c) -> Some (Optimum c)
  | Bsolo.Outcome.Unsatisfiable, _ -> Some Infeasible
  | _ -> None

let milp_limit = 20.
let certified_limit = 60.

(* [verdict] read back, split into words. *)
let answer_of_words = function
  | [ "OPTIMAL"; c ] -> Option.map (fun c -> Optimum c) (int_of_string_opt c)
  | [ "UNSAT" ] -> Some Infeasible
  | _ -> None

let certified_answer problem ~proof_path =
  let sink = Proof.Sink.open_file proof_path in
  let proof = Proof.create sink problem in
  let options = { Bsolo.Options.default with proof = Some proof; time_limit = Some certified_limit } in
  let outcome = Bsolo.Solver.solve ~options problem in
  Proof.Sink.close sink;
  match answer_of outcome, Proof.Check.check_file problem proof_path with
  | Some a, Ok s when s.Proof.Check.verdict = verdict a -> Ok a
  | _, Error msg -> Error ("reference proof rejected: " ^ msg)
  | _ -> Error "reference run did not prove an answer"

(* Reference answer for one problem, obtained without trusting bsolo's
   search: MILP where it finishes, else a proof-checked run. *)
let compute_reference w problem =
  let certified () =
    certified_answer problem ~proof_path:(Filename.concat workdir (w.name ^ "-reference.pbp"))
  in
  match w.reference_method with
  | Certified -> certified ()
  | Milp -> (
    let options = { Bsolo.Options.default with time_limit = Some milp_limit } in
    match answer_of (Milp.Branch_and_bound.solve ~options problem) with
    | Some a -> Ok a
    | None -> certified ())

(* --- recorded answers ------------------------------------------------------ *)

(* One file per family and scale: a line "GEN_SEED DIGEST ANSWER" per
   pool seed, where DIGEST is the MD5 of the instance's OPB text, so a
   generator change shows as a mismatch instead of a wrong reference. *)
let answers_path w = Printf.sprintf "solvebench/answers/%s-%g.txt" (family_name w.family) w.scale

let digest problem = Digest.to_hex (Digest.string (Opb.to_string problem))

let load_answers w =
  let table = Hashtbl.create pool_size in
  In_channel.with_open_text (answers_path w) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | seed :: digest :: answer -> (
           match int_of_string_opt seed, answer_of_words answer with
           | Some seed, Some a -> Hashtbl.replace table seed (digest, a)
           | _ -> ())
         | _ -> ());
  table

(* The recorded reference of one generated instance. *)
let reference answers inst =
  match Hashtbl.find_opt answers inst.gen_seed with
  | None -> Error (Printf.sprintf "no recorded answer for generator seed %d" inst.gen_seed)
  | Some (d, a) ->
    if d = digest inst.problem then Ok a
    else Error (Printf.sprintf "generator seed %d no longer yields the recorded instance" inst.gen_seed)

(* Computes and writes the answers of the whole pool. *)
let record w =
  Out_channel.with_open_text (answers_path w) (fun oc ->
      Printf.fprintf oc "# %s scale %g, generator seeds 1..%d: seed, OPB digest, reference answer (%s)\n"
        (family_name w.family) w.scale pool_size
        (match w.reference_method with Milp -> "MILP, else proof-checked bsolo" | Certified -> "proof-checked bsolo");
      for seed = 1 to pool_size do
        let problem = generate w.family w.scale seed in
        match compute_reference w problem with
        | Ok a -> Printf.fprintf oc "%d %s %s\n%!" seed (digest problem) (verdict a)
        | Error e -> Printf.eprintf "generator seed %d: %s\n%!" seed e
      done)
