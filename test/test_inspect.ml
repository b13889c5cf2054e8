(* Search-analytics layer: series decimation, bound-quality tracking
   attribution, the gap series' global bound, per-procedure
   effectiveness and report diffs. *)

module Json = Telemetry.Json

let check_float = Alcotest.check (Alcotest.float 1e-9)

(* --- Telemetry.Series ------------------------------------------------------ *)

let test_series_bounded () =
  let s = Telemetry.Series.make ~capacity:8 ~fields:[ "v" ] "t" in
  for i = 0 to 999 do
    Telemetry.Series.observe s ~t:(float_of_int i) [| float_of_int (i * 2) |]
  done;
  let n = Telemetry.Series.length s in
  Alcotest.(check bool) "bounded" true (n <= 8 && n >= 4);
  let samples = Telemetry.Series.samples s in
  Alcotest.(check int) "samples match length" n (List.length samples);
  (* Oldest first, strictly increasing times, values consistent. *)
  let rec monotone = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone samples);
  List.iter (fun (t, vs) -> check_float "value tracks time" (2. *. t) vs.(0)) samples

let test_series_observe_now () =
  let s = Telemetry.Series.make ~capacity:8 ~fields:[ "v" ] "t" in
  for i = 0 to 99 do
    Telemetry.Series.observe s ~t:(float_of_int i) [| 0. |]
  done;
  (* After decimation the stride drops most offers, but observe_now points
     must always land. *)
  Telemetry.Series.observe_now s ~t:1000. [| 42. |];
  let samples = Telemetry.Series.samples s in
  let t_last, v_last = List.nth samples (List.length samples - 1) in
  check_float "kept time" 1000. t_last;
  check_float "kept value" 42. v_last.(0)

let test_series_arity () =
  let s = Telemetry.Series.make ~fields:[ "lb"; "ub" ] "g" in
  Alcotest.check_raises "arity enforced" (Invalid_argument "Series.observe: arity mismatch")
    (fun () -> Telemetry.Series.observe s ~t:0. [| 1. |])

(* --- Lowerbound.Track ------------------------------------------------------ *)

let test_tightness_pm () =
  Alcotest.(check int) "half" 500 (Lowerbound.Track.tightness_pm ~value:5 ~need:10);
  Alcotest.(check int) "full" 1000 (Lowerbound.Track.tightness_pm ~value:10 ~need:10);
  Alcotest.(check int) "clamped high" 1000 (Lowerbound.Track.tightness_pm ~value:25 ~need:10);
  Alcotest.(check int) "clamped low" 0 (Lowerbound.Track.tightness_pm ~value:(-3) ~need:10);
  Alcotest.(check int) "closed gap" 1000 (Lowerbound.Track.tightness_pm ~value:0 ~need:0)

let test_track_attribution () =
  let tel = Telemetry.Ctx.create () in
  let reg = tel.Telemetry.Ctx.registry in
  let tr = Lowerbound.Track.create tel ~proc:"lpr" ~floor:0 in
  Lowerbound.Track.note_call tr ~value:6 ~path:2 ~upper:10;
  Lowerbound.Track.note_call tr ~value:8 ~path:2 ~upper:10;
  (* Two LB-driven bound conflicts and one path-cost-only one. *)
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:true ~from_level:10 ~to_level:4 ~lb:8
    ~path:2 ~upper:10;
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:true ~from_level:7 ~to_level:5 ~lb:8
    ~path:2 ~upper:10;
  Lowerbound.Track.note_bound_conflict tr ~lb_driven:false ~from_level:3 ~to_level:2 ~lb:10
    ~path:10 ~upper:10;
  let counter name = Option.value ~default:0 (Telemetry.Registry.find_counter reg name) in
  Alcotest.(check int) "lpr conflicts" 2 (counter "lb.lpr.bound_conflicts");
  Alcotest.(check int) "path conflicts" 1 (counter "lb.path.bound_conflicts");
  let tightness = Telemetry.Registry.histogram reg "lb.lpr.tightness_pm" in
  Alcotest.(check int) "calls recorded" 2 (Telemetry.Histogram.total tightness);
  (* value=6 over need=8 is 750 pm; value=8 closes the gap. *)
  check_float "mean tightness" 875. (Telemetry.Histogram.mean tightness);
  let backjump = Telemetry.Registry.histogram reg "lb.lpr.bc_backjump" in
  Alcotest.(check int) "lpr backjumps" 2 (Telemetry.Histogram.total backjump);
  check_float "mean backjump" 4. (Telemetry.Histogram.mean backjump)

let test_gap_series_roundtrip () =
  let tel = Telemetry.Ctx.create () in
  let tr = Lowerbound.Track.create tel ~proc:"mis" ~floor:3 in
  Lowerbound.Track.gap_sample tr ~at:0.5 ~ub:20;
  Lowerbound.Track.publish_global_lb tr ~lb:7;
  Lowerbound.Track.gap_sample_now tr ~at:1.5 ~ub:12;
  (* a global bound past the incumbent proves it optimal: gap 0 *)
  Lowerbound.Track.publish_global_lb tr ~lb:15;
  Lowerbound.Track.gap_sample_now tr ~at:2.5 ~ub:12;
  (* Rebuild the report's "series" section the way Report.make does and
     re-read it through the public reader. *)
  let series = Telemetry.Registry.all_series tel.Telemetry.Ctx.registry in
  Alcotest.(check int) "one series" 1 (List.length series);
  let s = List.hd series in
  Alcotest.(check string) "name" Lowerbound.Track.gap_series_name (Telemetry.Series.name s);
  let json =
    Json.Obj
      [
        ( "series",
          Json.Obj
            [
              ( Telemetry.Series.name s,
                Json.Obj
                  [
                    ( "samples",
                      Json.List
                        (List.map
                           (fun (t, vs) ->
                             Json.List
                               (Json.Float t
                               :: List.map (fun v -> Json.Float v) (Array.to_list vs)))
                           (Telemetry.Series.samples s)) );
                  ] );
            ] );
      ]
  in
  match Bsolo.Report.series_of_json json Lowerbound.Track.gap_series_name with
  | [ (t1, v1); (t2, v2); (_, v3) ] ->
    check_float "t1" 0.5 t1;
    check_float "lb1" 3. v1.(0);
    check_float "ub1" 20. v1.(1);
    check_float "t2" 1.5 t2;
    check_float "lb2" 7. v2.(0);
    check_float "ub2" 12. v2.(1);
    check_float "lb3 clamped to ub" 12. v3.(0)
  | other -> Alcotest.failf "expected 3 samples, got %d" (List.length other)

(* The gap series of a real solve, under every LB procedure: each sample
   pairs a globally valid bound with the incumbent, so lb <= ub holds
   and lb never decreases.  Small synthesis instances (large, uneven
   costs) are where node-local bounds overshoot the incumbent.  Half the
   instances get a negative objective offset (costs on negated
   literals), so the offset floor is exercised too. *)
let qcheck_gap_truthful =
  let instance seed nodes =
    Benchgen.Synthesis.generate
      ~params:
        { Benchgen.Synthesis.default with nodes; support_cells = nodes / 2; exclusions = nodes }
      seed
  in
  let offset_variant problem =
    let b = Pbo.Problem.Builder.create ~nvars:(Pbo.Problem.nvars problem) () in
    Array.iter
      (fun c -> Pbo.Problem.Builder.add_norm b (Pbo.Constr.Constr c))
      (Pbo.Problem.constraints problem);
    (match Pbo.Problem.objective problem with
    | Some o ->
      Pbo.Problem.Builder.set_objective b
        (Array.to_list
           (Array.map
              (fun (t : Pbo.Problem.cost_term) -> -t.cost, Pbo.Lit.negate t.lit)
              o.cost_terms))
    | None -> ());
    Pbo.Problem.Builder.build b
  in
  let gap_samples problem lb =
    let tel = Telemetry.Ctx.create ~timing:false () in
    let options = { (Bsolo.Options.with_lb lb) with telemetry = Some tel } in
    ignore (Bsolo.Solver.solve ~options problem);
    List.concat_map
      (fun s ->
        if Telemetry.Series.name s = Lowerbound.Track.gap_series_name then
          List.map (fun (_, v) -> v.(0), v.(1)) (Telemetry.Series.samples s)
        else [])
      (Telemetry.Registry.all_series tel.Telemetry.Ctx.registry)
  in
  let rec truthful prev = function
    | [] -> true
    | (lb, ub) :: rest -> lb <= ub && lb >= prev && truthful lb rest
  in
  QCheck2.Test.make ~name:"gap series lb <= ub, lb never decreases" ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 5 10) bool)
    (fun (seed, nodes, shifted) ->
      let problem = instance seed nodes in
      let problem = if shifted then offset_variant problem else problem in
      List.for_all
        (fun lb -> truthful neg_infinity (gap_samples problem lb))
        Bsolo.Options.[ Plain; Mis; Lgr; Lpr ])

(* --- effectiveness --------------------------------------------------------- *)

let synthetic_report =
  Json.Obj
    [
      "schema", Json.String "bsolo-run-report/1";
      "elapsed", Json.Float 2.0;
      ( "phases",
        Json.Obj [ "lower_bound", Json.Float 0.3; "simplex", Json.Float 0.5 ] );
      ( "counters",
        Json.Obj
          [
            "lb.lpr.bound_conflicts", Json.Int 10;
            "lb.path.bound_conflicts", Json.Int 2;
            "engine.conflicts", Json.Int 40;
          ] );
      ( "histograms",
        Json.Obj
          [
            ( "lb.lpr.tightness_pm",
              Json.Obj [ "total", Json.Int 20; "mean", Json.Float 800.; "max", Json.Int 1000 ]
            );
            ( "lb.lpr.bc_backjump",
              Json.Obj [ "total", Json.Int 10; "mean", Json.Float 3.; "max", Json.Int 7 ] );
            ( "lb.path.bc_backjump",
              Json.Obj [ "total", Json.Int 2; "mean", Json.Float 1.; "max", Json.Int 1 ] );
          ] );
    ]

let test_effectiveness () =
  let rows = Inspect.effectiveness synthetic_report in
  Alcotest.(check int) "two procs" 2 (List.length rows);
  let lpr = List.find (fun (r : Inspect.proc_row) -> r.proc = "lpr") rows in
  let path = List.find (fun (r : Inspect.proc_row) -> r.proc = "path") rows in
  Alcotest.(check int) "lpr calls from tightness total" 20 lpr.calls;
  check_float "lpr seconds = lower_bound + simplex" 0.8 lpr.time_s;
  check_float "lpr time share" 0.4 lpr.time_share;
  check_float "lpr tightness" 800. lpr.mean_tightness_pm;
  Alcotest.(check int) "lpr conflicts" 10 lpr.bound_conflicts;
  check_float "lpr mean backjump" 3. lpr.mean_backjump;
  Alcotest.(check int) "lpr pruning credit" 30 lpr.pruning_credit;
  Alcotest.(check int) "path conflicts" 2 path.bound_conflicts;
  Alcotest.(check int) "path pruning credit" 2 path.pruning_credit

(* --- report diff ----------------------------------------------------------- *)

let report ~elapsed ~conflicts ~lb_time =
  Json.Obj
    [
      "schema", Json.String "bsolo-run-report/1";
      "elapsed", Json.Float elapsed;
      "phases", Json.Obj [ "lower_bound", Json.Float lb_time ];
      "counters", Json.Obj [ "engine.conflicts", Json.Int conflicts ];
    ]

let test_diff_flags_slowdown () =
  let base = report ~elapsed:1.0 ~conflicts:1000 ~lb_time:0.4 in
  let cand = report ~elapsed:2.0 ~conflicts:3000 ~lb_time:1.1 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "has regression" true (Inspect.has_regression entries);
  let by_key k = List.find (fun (e : Inspect.diff_entry) -> e.key = k) entries in
  Alcotest.(check bool) "elapsed 2x flagged" true (by_key "elapsed").regression;
  Alcotest.(check bool) "conflicts 3x flagged" true
    (by_key "counters.engine.conflicts").regression;
  Alcotest.(check bool) "phase flagged" true (by_key "phases.lower_bound").regression

let test_diff_below_threshold () =
  let base = report ~elapsed:1.0 ~conflicts:1000 ~lb_time:0.4 in
  let cand = report ~elapsed:1.1 ~conflicts:1040 ~lb_time:0.45 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "no regression" false (Inspect.has_regression entries)

let test_diff_noise_floor () =
  (* Huge ratios on tiny absolute values stay below the noise floors. *)
  let base = report ~elapsed:0.002 ~conflicts:3 ~lb_time:0.001 in
  let cand = report ~elapsed:0.01 ~conflicts:30 ~lb_time:0.004 in
  let entries = Inspect.diff ~threshold:0.25 base cand in
  Alcotest.(check bool) "noise not flagged" false (Inspect.has_regression entries)

let suite =
  [
    Alcotest.test_case "series bounded decimation" `Quick test_series_bounded;
    Alcotest.test_case "series observe_now kept" `Quick test_series_observe_now;
    Alcotest.test_case "series arity check" `Quick test_series_arity;
    Alcotest.test_case "tightness per-mille" `Quick test_tightness_pm;
    Alcotest.test_case "track attribution" `Quick test_track_attribution;
    Alcotest.test_case "gap series round-trip" `Quick test_gap_series_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_gap_truthful;
    Alcotest.test_case "effectiveness table" `Quick test_effectiveness;
    Alcotest.test_case "diff flags 2x slowdown" `Quick test_diff_flags_slowdown;
    Alcotest.test_case "diff below threshold" `Quick test_diff_below_threshold;
    Alcotest.test_case "diff noise floor" `Quick test_diff_noise_floor;
  ]
