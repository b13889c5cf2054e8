open Pbo

let norm_sat norm m =
  match norm with
  | Constr.Trivial_true -> true
  | Constr.Trivial_false -> false
  | Constr.Constr c -> Constr.satisfied_by (Model.lit_true m) c

(* The knapsack cut (10) must keep exactly the assignments with cost
   (offset excluded) at most upper - 1. *)
let upper_cut_semantics () =
  for seed = 0 to 40 do
    let problem = Gen.covering ~nvars:8 ~nclauses:6 seed in
    let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
    let max_cost = Problem.max_cost_sum problem in
    let upper = 1 + (seed mod (max_cost + 1)) in
    let cut = Bsolo.Knapsack.upper_cut problem ~upper in
    for mask = 0 to 255 do
      let m = Model.of_array (Array.init 8 (fun v -> (mask lsr v) land 1 = 1)) in
      let cheap = Model.cost problem m - offset <= upper - 1 in
      if norm_sat cut m <> cheap then
        Alcotest.failf "seed %d upper %d: cut disagrees at mask %d" seed upper mask
    done
  done

(* Every inference (13) must be implied by (problem constraints AND cost
   <= upper - 1): no model below the bound may violate it. *)
let cardinality_inference_sound () =
  for seed = 0 to 40 do
    let problem = Gen.covering ~nvars:8 ~nclauses:6 seed in
    let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
    let max_cost = Problem.max_cost_sum problem in
    let upper = 1 + (seed mod (max_cost + 1)) in
    let cuts = Bsolo.Knapsack.cardinality_inferences problem ~upper in
    for mask = 0 to 255 do
      let m = Model.of_array (Array.init 8 (fun v -> (mask lsr v) land 1 = 1)) in
      if Model.satisfies problem m && Model.cost problem m - offset <= upper - 1 then
        List.iter
          (fun cut ->
            if not (norm_sat cut m) then
              Alcotest.failf "seed %d upper %d: inference cuts a good model" seed upper)
          cuts
    done
  done

let inference_requires_cardinality_with_cost () =
  (* a cardinality constraint over zero-cost literals yields no cut *)
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_cardinality b [ Lit.pos 0; Lit.pos 1 ] 1;
  Problem.Builder.set_objective b [ 5, Lit.pos 2; 7, Lit.pos 3 ];
  let p = Problem.Builder.build b in
  Alcotest.(check int) "no cuts" 0 (List.length (Bsolo.Knapsack.cardinality_inferences p ~upper:10));
  (* with costs inside the group, a cut appears *)
  let b2 = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_cardinality b2 [ Lit.pos 0; Lit.pos 1 ] 1;
  Problem.Builder.set_objective b2 [ 2, Lit.pos 0; 3, Lit.pos 1; 5, Lit.pos 2 ];
  let p2 = Problem.Builder.build b2 in
  Alcotest.(check int) "one cut" 1 (List.length (Bsolo.Knapsack.cardinality_inferences p2 ~upper:10))

let upper_cut_at_zero () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.set_objective b [ 1, Lit.pos 0 ];
  let p = Problem.Builder.build b in
  match Bsolo.Knapsack.upper_cut p ~upper:0 with
  | Constr.Trivial_false -> ()
  | Constr.Trivial_true | Constr.Constr _ -> Alcotest.fail "upper 0 admits nothing"

(* A source's cut is its degree raised on one shared shape once
   saturation stops clipping, and a fresh normalization before that; both
   must equal the checker's independent recomputation at every bound,
   across the clipped range and the trivial ends. *)
let source_cuts_match_normalization () =
  let same n k =
    match n, k with
    | Constr.Constr a, Constr.Constr b -> Constr.equal a b
    | Constr.Trivial_true, Constr.Trivial_true | Constr.Trivial_false, Constr.Trivial_false -> true
    | (Constr.Constr _ | Constr.Trivial_true | Constr.Trivial_false), _ -> false
  in
  for seed = 0 to 40 do
    let problem = if seed mod 2 = 0 then Gen.problem seed else Gen.covering seed in
    let hi = Problem.max_cost_sum problem in
    for upper = -1 to hi + 2 do
      (match Proof.objective_cut problem ~upper with
      | Some n when same n (Bsolo.Knapsack.upper_cut problem ~upper) -> ()
      | Some _ | None -> Alcotest.failf "seed %d: knapsack cut differs at upper %d" seed upper);
      List.iter
        (fun source ->
          match Bsolo.Knapsack.origin source with
          | None -> Alcotest.failf "seed %d: cardinality source without origin" seed
          | Some cid -> (
            match Proof.cardinality_cut problem ~cid ~upper with
            | Some n when same n (Bsolo.Knapsack.cut source ~upper) -> ()
            | Some _ | None ->
              Alcotest.failf "seed %d: cardinality cut of %d differs at upper %d" seed cid upper))
        (Bsolo.Knapsack.cardinality_sources problem)
    done
  done

let suite =
  [
    Alcotest.test_case "upper cut semantics" `Quick upper_cut_semantics;
    Alcotest.test_case "cardinality inference sound" `Quick cardinality_inference_sound;
    Alcotest.test_case "inference requires costs in group" `Quick inference_requires_cardinality_with_cost;
    Alcotest.test_case "upper cut at zero" `Quick upper_cut_at_zero;
    Alcotest.test_case "source cuts match normalization" `Quick source_cuts_match_normalization;
  ]
