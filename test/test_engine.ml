open Pbo
module Core = Engine.Solver_core

(* --- propagation correctness against first principles ------------------- *)

(* After a propagation fixpoint with no conflict, no constraint may force
   an unassigned literal (a_i > slack) and none may be violated. *)
let fixpoint_is_complete engine =
  let ok = ref true in
  Core.iter_constraints engine (fun ~learned:_ c ->
      let slack = Constr.slack_under (Core.value_lit engine) c in
      if slack < 0 then ok := false
      else
        Array.iter
          (fun { Constr.coeff; lit } ->
            if coeff > slack && Value.equal (Core.value_lit engine lit) Value.Unknown then
              ok := false)
          (Constr.terms c));
  !ok

(* Incremental slacks must agree with recomputation from the values. *)
let slacks_consistent engine =
  let ok = ref true in
  (* [iter_constraints] has no ids; recompute via actives + full scan *)
  Core.iter_constraints engine (fun ~learned:_ _ -> ());
  let n = ref 0 in
  Core.iter_constraints engine (fun ~learned:_ _ -> incr n);
  for ci = 0 to !n - 1 do
    let c = Core.constr_of engine ci in
    if Core.slack_of engine ci <> Constr.slack_under (Core.value_lit engine) c then ok := false
  done;
  !ok

let propagation_invariants () =
  for seed = 0 to 60 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      let rng = Random.State.make [| seed; 99 |] in
      let steps = ref 0 in
      let continue = ref true in
      while !continue && !steps < 30 do
        incr steps;
        match Core.propagate engine with
        | Some _ -> continue := false  (* conflict: stop this walk *)
        | None ->
          if not (fixpoint_is_complete engine) then
            Alcotest.failf "seed %d: fixpoint incomplete" seed;
          if not (slacks_consistent engine) then
            Alcotest.failf "seed %d: slacks diverged" seed;
          (match Core.next_branch_var engine with
          | None -> continue := false
          | Some v ->
            Core.decide engine (Lit.make v (Random.State.bool rng)))
      done
    end
  done

let backjump_restores_state () =
  for seed = 0 to 40 do
    let problem = Gen.problem seed in
    let engine = Core.create problem in
    if not (Core.root_unsat engine) then begin
      match Core.propagate engine with
      | Some _ -> ()
      | None ->
        let assigned0 = Core.num_assigned engine in
        let rng = Random.State.make [| seed; 77 |] in
        let rec dive n =
          if n > 0 then begin
            match Core.next_branch_var engine with
            | None -> ()
            | Some v ->
              Core.decide engine (Lit.make v (Random.State.bool rng));
              (match Core.propagate engine with
              | None -> dive (n - 1)
              | Some _ -> ())
          end
        in
        dive 4;
        Core.backjump_to engine 0;
        if Core.num_assigned engine <> assigned0 then
          Alcotest.failf "seed %d: trail not restored" seed;
        if not (slacks_consistent engine) then
          Alcotest.failf "seed %d: slacks wrong after backjump" seed
    end
  done

(* --- learned-clause soundness ------------------------------------------- *)

(* On satisfaction instances every learned clause is entailed by the
   problem: check against all models by enumeration. *)
let learned_clauses_entailed () =
  for seed = 0 to 30 do
    let problem = Gen.problem ~config:{ Gen.default with with_objective = false } seed in
    (* run an engine search manually to collect learned clauses *)
    let engine = Core.create problem in
    let rec cdcl fuel =
      if fuel > 0 && not (Core.root_unsat engine) then begin
        match Core.propagate engine with
        | Some ci ->
          (match Core.resolve_conflict engine ci with
          | Core.Root_conflict -> ()
          | Core.Backjump _ -> cdcl (fuel - 1))
        | None ->
          (match Core.next_branch_var engine with
          | None -> ()
          | Some v ->
            Core.decide engine (Lit.pos v);
            cdcl (fuel - 1))
      end
    in
    cdcl 200;
    let learned = ref [] in
    Core.iter_constraints engine (fun ~learned:l c -> if l then learned := c :: !learned);
    let nvars = Problem.nvars problem in
    if nvars <= 12 then
      for mask = 0 to (1 lsl nvars) - 1 do
        let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
        if Model.satisfies problem m then
          List.iter
            (fun c ->
              if not (Constr.satisfied_by (Model.lit_true m) c) then
                Alcotest.failf "seed %d: learned clause not entailed" seed)
            !learned
      done
  done

(* --- cost bookkeeping ----------------------------------------------------- *)

let path_cost_tracks_assignment () =
  for seed = 0 to 30 do
    let problem = Gen.covering seed in
    let engine = Core.create problem in
    let rng = Random.State.make [| seed; 5 |] in
    let expected () =
      match Problem.objective problem with
      | None -> 0
      | Some o ->
        Array.fold_left
          (fun acc (ct : Problem.cost_term) ->
            match Core.value_lit engine ct.lit with
            | Value.True -> acc + ct.cost
            | Value.False | Value.Unknown -> acc)
          0 o.cost_terms
    in
    let rec walk n =
      if n > 0 then begin
        match Core.propagate engine with
        | Some _ -> ()
        | None ->
          if Core.path_cost engine <> expected () then
            Alcotest.failf "seed %d: path cost mismatch" seed;
          (match Core.next_branch_var engine with
          | None -> ()
          | Some v ->
            Core.decide engine (Lit.make v (Random.State.bool rng));
            walk (n - 1))
      end
    in
    walk 6;
    Core.backjump_to engine 0;
    if Core.path_cost engine <> expected () then Alcotest.failf "seed %d: path after reset" seed
  done

(* --- dynamic constraints --------------------------------------------------- *)

let dynamic_constraint_propagates () =
  let b = Problem.Builder.create ~nvars:3 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  (* force x0: add unit clause dynamically *)
  (match Constr.clause [ Lit.pos 0 ] with
  | Constr.Constr c ->
    (match Core.add_constraint_dynamic engine c with
    | None -> ()
    | Some _ -> Alcotest.fail "unit clause should not conflict")
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "clause");
  ignore (Core.propagate engine);
  Alcotest.(check bool) "x0 forced" true
    (Value.equal (Core.value_var engine 0) Value.True)

let dynamic_conflicting_constraint () =
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  let problem = Problem.Builder.build b in
  let engine = Core.create problem in
  ignore (Core.propagate engine);
  Core.decide engine (Lit.pos 0);
  ignore (Core.propagate engine);
  (* now add a constraint violated by x0=1 *)
  match Constr.clause [ Lit.neg 0 ] with
  | Constr.Constr c ->
    (match Core.add_constraint_dynamic engine c with
    | Some ci ->
      (match Core.resolve_conflict engine ci with
      | Core.Backjump _ ->
        ignore (Core.propagate engine);
        Alcotest.(check bool) "x0 now false" true
          (Value.equal (Core.value_var engine 0) Value.False)
      | Core.Root_conflict -> Alcotest.fail "still satisfiable")
    | None -> Alcotest.fail "should conflict")
  | Constr.Trivial_true | Constr.Trivial_false -> Alcotest.fail "clause"

let reduce_db_preserves_solving () =
  (* run bsolo with DB reduction on and check agreement with brute force *)
  for seed = 50 to 70 do
    let problem = Gen.problem seed in
    let reference = Bsolo.Exhaustive.optimum problem in
    let engine_opts = { Bsolo.Options.default with reduce_db = true } in
    let outcome = Bsolo.Solver.solve ~options:engine_opts problem in
    match reference, outcome.best with
    | None, None -> ()
    | Some (_, opt), Some (_, got) ->
      if opt <> got then Alcotest.failf "seed %d: reduce_db changed optimum" seed
    | None, Some _ | Some _, None -> Alcotest.failf "seed %d: status mismatch" seed
  done

(* --- incumbent-cut slots ------------------------------------------------- *)

let modes = [ Core.Watched, "watched"; Core.Counting, "counting"; Core.Hybrid, "hybrid" ]

let constraint_count engine =
  let n = ref 0 in
  Core.iter_constraints engine (fun ~learned:_ _ -> incr n);
  !n

let assigned engine =
  List.init (Core.nvars engine) (fun v -> Core.value_var engine v)

let invariants_hold where engine =
  match Core.check_invariants engine with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invariant: %s" where e

let knapsack_cut problem ~upper =
  match Bsolo.Knapsack.upper_cut problem ~upper with
  | Constr.Constr c -> Some c
  | Constr.Trivial_true | Constr.Trivial_false -> None

(* Every model of [problem] costing at most [upper - 1] (offset excluded)
   satisfies every learned constraint of [engine]. *)
let learned_entailed ~where problem engine ~upper =
  let nvars = Problem.nvars problem in
  let offset = match Problem.objective problem with None -> 0 | Some o -> o.offset in
  let learned = ref [] in
  Core.iter_constraints engine (fun ~learned:l c -> if l then learned := c :: !learned);
  for mask = 0 to (1 lsl nvars) - 1 do
    let m = Model.of_array (Array.init nvars (fun v -> (mask lsr v) land 1 = 1)) in
    if Model.satisfies problem m && Model.cost problem m - offset <= upper - 1 then
      List.iter
        (fun c ->
          if not (Constr.satisfied_by (Model.lit_true m) c) then
            Alcotest.failf "%s: learned %s cuts off a model below the bound" where
              (Constr.to_string c))
        !learned
  done

(* A slot tightened in place must act like the freshly normalized cut
   added next to the old one (the append policy): same conflict verdict,
   same fixpoint.  Engine [a] keeps the knapsack cut in slot 0 and raises
   it from [u1] to [u2]; engine [b] holds the [u1] cut in slot 1 and
   attaches the [u2] cut fresh into slot 0.  Before the tightening both
   engines hold the same constraints under the same cids, so they stay in
   lockstep through conflicts too.  Afterwards the slot's constraint is
   exactly [Knapsack.upper_cut] at [u2], and conflict analysis through it
   — also as the reason of literals it implied at [u1] — learns only
   clauses that hold below [u2]. *)
let slot_in_place_equals_fresh () =
  let in_place_cases = ref 0 in
  List.iter
    (fun (mode, name) ->
      for seed = 0 to 80 do
        (* odd seeds: covering instances, which are rarely unsat at the root *)
        let problem = if seed mod 2 = 0 then Gen.problem seed else Gen.covering seed in
        let hi = Problem.max_cost_sum problem in
        let a = Core.create ~bcp:mode problem and b = Core.create ~bcp:mode problem in
        let rng = Random.State.make [| seed; 0x5107 |] in
        let where = Printf.sprintf "seed %d (%s)" seed name in
        let same_verdict step ra rb =
          if Option.is_some ra <> Option.is_some rb then
            Alcotest.failf "%s: %s conflict verdict differs" where step
        in
        let same_state step =
          if assigned a <> assigned b then Alcotest.failf "%s: %s state differs" where step;
          invariants_hold where a;
          invariants_hold where b
        in
        (* a conflict stops propagation part-way, at a point that depends
           on constraint order: only fixpoints are compared *)
        let propagate_both () =
          let ra = Core.propagate a and rb = Core.propagate b in
          same_verdict "propagate" ra rb;
          if ra = None then same_state "propagate";
          ra, rb
        in
        let install_at = 1 + Random.State.int rng 3 in
        let tighten_at = install_at + 1 + Random.State.int rng 2 in
        let u1 = ref hi and u2 = ref hi and slot = ref None in
        let install () =
          (* a budget over the path, often small enough to imply literals *)
          let path = Core.path_cost a in
          u1 := min hi (path + 1 + Random.State.int rng (1 + ((hi - path) / 3)));
          u2 := !u1;
          match knapsack_cut problem ~upper:!u1 with
          | None -> None, None
          | Some c1 ->
            slot := Some (constraint_count a);
            let ra = Core.tighten_cut a ~slot:0 c1 and rb = Core.tighten_cut b ~slot:1 c1 in
            same_verdict "install" ra rb;
            ra, rb
        in
        let tighten () =
          u2 := !u1 - 1 - Random.State.int rng 3;
          match !slot, knapsack_cut problem ~upper:!u2 with
          | Some cid, Some c2 ->
            (* a clipped [u1] cut has another shape: re-attached *)
            let in_place = Constr.terms (Core.constr_of a cid) = Constr.terms c2 in
            if in_place then incr in_place_cases;
            let n = constraint_count a in
            let ra = Core.tighten_cut a ~slot:0 c2 in
            same_verdict "tighten" ra (Core.tighten_cut b ~slot:0 c2);
            let cid = if in_place then cid else n in
            if constraint_count a <> (if in_place then n else n + 1) then
              Alcotest.failf "%s: tightening in place = %b, store %d -> %d" where in_place n
                (constraint_count a);
            if not (Constr.equal (Core.constr_of a cid) c2) then
              Alcotest.failf "%s: slot holds %s, fresh cut is %s" where
                (Constr.to_string (Core.constr_of a cid)) (Constr.to_string c2);
            (match ra with Some _ -> ra | None -> fst (propagate_both ()))
          | None, _ | _, None -> None
        in
        let rec walk step =
          if step > 12 || Core.root_unsat a then ()
          else if step = tighten_at then begin
            match tighten () with
            | None -> ()
            | Some ci ->
              ignore (Core.resolve_conflict a ci);
              invariants_hold where a;
              learned_entailed ~where problem a ~upper:!u2
          end
          else begin
            let ra, rb = if step = install_at then install () else None, None in
            let ra, rb = if ra = None then propagate_both () else ra, rb in
            match ra, rb with
            | None, _ -> (
              match Core.next_branch_var a with
              | None -> ()
              | Some v ->
                let l = Lit.make v (Random.State.bool rng) in
                Core.decide a l;
                Core.decide b l;
                walk (step + 1))
            | Some ca, Some cb ->
              let x = Core.resolve_conflict a ca and y = Core.resolve_conflict b cb in
              if x <> y then Alcotest.failf "%s: analysis differs before the tightening" where;
              same_state "analysis";
              if x <> Core.Root_conflict then walk (step + 1)
            | Some _, None -> Alcotest.failf "%s: conflict verdict differs" where
          end
        in
        if (not (Core.root_unsat a)) && fst (propagate_both ()) = None then walk 0
      done)
    modes;
  if !in_place_cases < 30 then Alcotest.failf "only %d in-place tightenings" !in_place_cases

(* The same comparison where the slot is the reason of trail literals
   when it is tightened, and conflict analysis then resolves through
   both the old and the new implications.  Costs x0..x4 = 2 1 5 5 1;
   with x0 true the cut at upper 7 implies ~x2 and ~x3, the cut at
   upper 3 adds ~x1 and ~x4, and the clause x1 \/ x2 then conflicts:
   below 3 it forces ~x0. *)
let slot_tightened_reason () =
  let b = Problem.Builder.create ~nvars:5 () in
  Problem.Builder.set_objective b
    [ 2, Lit.pos 0; 1, Lit.pos 1; 5, Lit.pos 2; 5, Lit.pos 3; 1, Lit.pos 4 ];
  let problem = Problem.Builder.build b in
  let cut upper = Option.get (knapsack_cut problem ~upper) in
  let clause =
    match Constr.clause [ Lit.pos 1; Lit.pos 2 ] with
    | Constr.Constr c -> c
    | Constr.Trivial_true | Constr.Trivial_false -> assert false
  in
  List.iter
    (fun (mode, name) ->
      let a = Core.create ~bcp:mode problem and b = Core.create ~bcp:mode problem in
      let both f = f a, f b in
      let false_vars e =
        List.filter (fun v -> Value.equal (Core.value_var e v) Value.False) [ 0; 1; 2; 3; 4 ]
      in
      let expect what vars =
        List.iter
          (fun e ->
            invariants_hold name e;
            Alcotest.(check (list int)) (name ^ ": " ^ what) vars (false_vars e))
          [ a; b ]
      in
      let no_conflict what = function
        | None, None -> ()
        | Some _, _ | _, Some _ -> Alcotest.failf "%s: %s conflicts" name what
      in
      no_conflict "root" (both Core.propagate);
      ignore (both (fun e -> Core.decide e (Lit.pos 0)));
      no_conflict "decision" (both Core.propagate);
      no_conflict "install" (Core.tighten_cut a ~slot:0 (cut 7), Core.tighten_cut b ~slot:1 (cut 7));
      no_conflict "first fixpoint" (both Core.propagate);
      expect "upper 7 implies" [ 2; 3 ];
      no_conflict "tighten" (both (fun e -> Core.tighten_cut e ~slot:0 (cut 3)));
      no_conflict "second fixpoint" (both Core.propagate);
      expect "upper 3 implies" [ 1; 2; 3; 4 ];
      Alcotest.(check int) (name ^ ": one slot") 1 (constraint_count a);
      Alcotest.(check bool) (name ^ ": slot is the fresh cut") true
        (Constr.equal (Core.constr_of a 0) (cut 3));
      match both (fun e -> Core.add_constraint_dynamic e clause) with
      | Some ca, Some cb ->
        let x = Core.resolve_conflict a ca and y = Core.resolve_conflict b cb in
        if x <> y then Alcotest.failf "%s: analysis differs from the appended cuts" name;
        invariants_hold name a;
        (* the added clause counts among the learned constraints *)
        learned_entailed ~where:name (Problem.with_constraints problem [ clause ]) a ~upper:3;
        no_conflict "after analysis" (both Core.propagate);
        Alcotest.(check bool) (name ^ ": x0 refuted") true
          (Value.equal (Core.value_var a 0) Value.False)
      | None, _ | _, None -> Alcotest.failf "%s: the clause should conflict" name)
    modes

(* An early cut whose coefficients saturation clipped has a different
   shape from the later, unclipped one: the slot re-attaches, the old
   block turns into an ordinary learned constraint, and from then on the
   slot tightens in place. *)
let slot_clipped_cut_superseded () =
  let b = Problem.Builder.create ~nvars:4 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1; Lit.pos 2; Lit.pos 3 ];
  Problem.Builder.set_objective b [ 5, Lit.pos 0; 1, Lit.pos 1; 1, Lit.pos 2; 1, Lit.pos 3 ];
  let problem = Problem.Builder.build b in
  List.iter
    (fun (mode, name) ->
      let engine = Core.create ~bcp:mode problem in
      ignore (Core.propagate engine);
      let tighten upper =
        match knapsack_cut problem ~upper with
        | Some c ->
          if Core.tighten_cut engine ~slot:0 c <> None then
            Alcotest.failf "%s: cut at %d conflicts at the root" name upper;
          invariants_hold name engine;
          c
        | None -> Alcotest.failf "%s: no cut at %d" name upper
      in
      let clipped = tighten 7 in
      (* sum 8, degree 8 - 7 + 1 = 2 < 5: the cost 5 is clipped to 2 *)
      Alcotest.(check int) (name ^ ": clipped max coeff") 2 (Constr.max_coeff clipped);
      Alcotest.(check int) (name ^ ": one slot") 2 (constraint_count engine);
      let whole = tighten 3 in
      Alcotest.(check int) (name ^ ": re-attached") 3 (constraint_count engine);
      Alcotest.(check int) (name ^ ": superseded block is learned") 1 (Core.num_learned engine);
      Alcotest.(check bool) (name ^ ": old block kept") true
        (Constr.equal (Core.constr_of engine 1) clipped);
      Alcotest.(check bool) (name ^ ": new slot") true (Constr.equal (Core.constr_of engine 2) whole);
      let tighter = tighten 2 in
      Alcotest.(check int) (name ^ ": then in place") 3 (constraint_count engine);
      Alcotest.(check bool) (name ^ ": raised") true (Constr.equal (Core.constr_of engine 2) tighter))
    modes

(* [reduce_db] renumbers constraints; the slot must follow its
   constraint, so the next tightening still lands in place. *)
let slot_survives_reduce_db () =
  let remapped = ref 0 in
  for seed = 0 to 40 do
    let problem = Gen.covering seed in
    let engine = Core.create problem in
    (* learn binary clauses [~x_v \/ ~x_w] over pairs of decisions *)
    let unassigned v = Value.equal (Core.value_var engine v) Value.Unknown in
    let learn v w =
      if unassigned v then begin
        Core.decide engine (Lit.pos v);
        if Core.propagate engine = None && unassigned w then begin
          Core.decide engine (Lit.pos w);
          if Core.propagate engine = None then
            ignore (Core.learn_false_clause engine [ Lit.neg v; Lit.neg w ])
        end
      end
    in
    let hi = Problem.max_cost_sum problem in
    if (not (Core.root_unsat engine)) && Core.propagate engine = None then begin
      for v = 0 to Problem.nvars problem - 2 do
        learn v (v + 1);
        Core.backjump_to engine 0
      done;
      (* half the cost sum: past the clipped range, so one shape *)
      match knapsack_cut problem ~upper:(hi / 2), knapsack_cut problem ~upper:((hi / 2) - 1) with
      | Some c1, Some c2
        when Constr.terms c1 = Constr.terms c2
             && Core.num_learned engine >= 2
             && Core.propagate engine = None ->
        let cid = constraint_count engine in
        ignore (Core.tighten_cut engine ~slot:0 c1);
        Core.reduce_db engine;
        let n = constraint_count engine in
        if n <= cid then incr remapped;
        ignore (Core.tighten_cut engine ~slot:0 c2);
        invariants_hold (Printf.sprintf "seed %d" seed) engine;
        if constraint_count engine <> n then
          Alcotest.failf "seed %d: the slot was lost across reduce_db" seed;
        if not (Constr.equal (Core.constr_of engine (n - 1)) c2) then
          Alcotest.failf "seed %d: slot constraint %s, expected %s" seed
            (Constr.to_string (Core.constr_of engine (n - 1))) (Constr.to_string c2)
      | Some _, Some _ | None, _ | _, None -> ()
    end
  done;
  if !remapped = 0 then Alcotest.fail "no reduce_db moved a slot"

(* Memory stays bounded however many incumbents a solve finds: the
   incumbent cuts live in one slot per source.  The store is read through
   the BCP population gauges (every stored constraint is in exactly one
   mode; no [reduce_db] runs here) minus the learned clauses, relative to
   the first incumbent, before which no cut exists.  The difference counts
   cut constraints, superseded ones included; with one constraint per
   incumbent per source it would grow with the incumbent count. *)
let arena_bounded_over_incumbents () =
  let problem =
    Benchgen.Synthesis.generate
      ~params:{ Benchgen.Synthesis.default with nodes = 14; support_cells = 7 }
      3
  in
  let tel = Telemetry.Ctx.silent () in
  let get name = Telemetry.Counter.get (Telemetry.Registry.counter tel.registry name) in
  let stored () =
    get "bcp.constrs_watched" + get "bcp.constrs_counting" - get "engine.learned"
  in
  let first = ref None and most = ref 0 and incumbents = ref 0 in
  let note () =
    match !first with
    | None -> first := Some (stored ())
    | Some n -> most := max !most (stored () - n)
  in
  let options =
    {
      (Bsolo.Options.with_lb Bsolo.Options.Mis) with
      telemetry = Some tel;
      presolve = false;
      constraint_strengthening = false;
      reduce_db = false;
      on_incumbent =
        Some
          (fun _ _ ->
            incr incumbents;
            note ());
    }
  in
  let outcome = Bsolo.Solver.solve ~options problem in
  note ();
  let sources = 1 + List.length (Bsolo.Knapsack.cardinality_inferences_cids problem ~upper:0) in
  Alcotest.(check bool) "solved to optimality" true (outcome.status = Bsolo.Outcome.Optimal);
  if !incumbents < 20 then Alcotest.failf "only %d incumbents" !incumbents;
  if !most > 2 * sources then
    Alcotest.failf "%d cut constraints stored after %d incumbents, %d sources" !most !incumbents
      sources

let suite =
  [
    Alcotest.test_case "propagation invariants" `Slow propagation_invariants;
    Alcotest.test_case "backjump restores state" `Quick backjump_restores_state;
    Alcotest.test_case "learned clauses entailed" `Slow learned_clauses_entailed;
    Alcotest.test_case "path cost tracking" `Quick path_cost_tracks_assignment;
    Alcotest.test_case "dynamic constraint propagates" `Quick dynamic_constraint_propagates;
    Alcotest.test_case "dynamic conflicting constraint" `Quick dynamic_conflicting_constraint;
    Alcotest.test_case "reduce_db preserves solving" `Quick reduce_db_preserves_solving;
    Alcotest.test_case "cut slot: in place equals fresh" `Quick slot_in_place_equals_fresh;
    Alcotest.test_case "cut slot: tightened reason" `Quick slot_tightened_reason;
    Alcotest.test_case "cut slot: clipped cut superseded" `Quick slot_clipped_cut_superseded;
    Alcotest.test_case "cut slot: survives reduce_db" `Quick slot_survives_reduce_db;
    Alcotest.test_case "cut slots: arena bounded over incumbents" `Quick
      arena_bounded_over_incumbents;
  ]

let printers_do_not_raise () =
  let p = Gen.covering 4 in
  ignore (Format.asprintf "%a" Problem.pp p);
  Array.iter (fun c -> ignore (Constr.to_string c)) (Problem.constraints p);
  let o = Bsolo.Solver.solve p in
  match o.best with
  | Some (m, _) -> ignore (Format.asprintf "%a" Model.pp m)
  | None -> Alcotest.fail "expected a model"

let default_phase_steers_first_dive () =
  (* an unconstrained variable follows its default phase at decision time *)
  let b = Problem.Builder.create ~nvars:2 () in
  Problem.Builder.add_clause b [ Lit.pos 0; Lit.pos 1 ];
  let p = Problem.Builder.build b in
  let engine = Core.create p in
  Core.set_default_phase engine 0 true;
  ignore (Core.propagate engine);
  (match Core.next_branch_var engine with
  | Some v -> Core.decide engine (Lit.make v (Core.phase_hint engine v))
  | None -> Alcotest.fail "a variable should be unassigned");
  (* whichever variable was picked, its hint was respected *)
  Alcotest.(check bool) "some assignment made" true (Core.num_assigned engine >= 1)

let suite =
  suite
  @ [
      Alcotest.test_case "printers do not raise" `Quick printers_do_not_raise;
      Alcotest.test_case "default phase api" `Quick default_phase_steers_first_dive;
    ]
