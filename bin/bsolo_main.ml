(* Command-line PBO solver over OPB files: the reproduction of the bsolo
   prototype, with the baselines selectable for comparison.  The default
   command solves an instance; `bsolo inspect` analyses the run reports,
   spans, heartbeats and recordings a solve leaves behind. *)

open Cmdliner

type engine_choice =
  | Bsolo_engine
  | Pbs_engine
  | Galena_engine
  | Milp_engine

let engine_name = function
  | Bsolo_engine -> "bsolo"
  | Pbs_engine -> "pbs"
  | Galena_engine -> "galena"
  | Milp_engine -> "milp"

let parse path =
  if Filename.check_suffix path ".cnf" || Filename.check_suffix path ".dimacs" then
    Pbo.Dimacs.parse_file path
  else Pbo.Opb.parse_file path

(* Phase table and counter dump, PB-competition comment style, on stderr
   so the `s`/`o`/`v` protocol lines on stdout stay machine-parsable. *)
let print_stats tel elapsed =
  let phases = Telemetry.Timer.snapshot tel.Telemetry.Ctx.timer in
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
  Printf.eprintf "c phase times (self seconds):\n";
  List.iter
    (fun (p, s) ->
      Printf.eprintf "c   %-12s %8.3f  %5.1f%%\n" (Telemetry.Phase.name p) s
        (if elapsed > 0. then 100. *. s /. elapsed else 0.))
    phases;
  Printf.eprintf "c   %-12s %8.3f  (elapsed %.3f, covered %.1f%%)\n" "total" covered elapsed
    (if elapsed > 0. then 100. *. covered /. elapsed else 0.);
  let counters = Telemetry.Registry.counters tel.registry in
  if counters <> [] then begin
    Printf.eprintf "c counters:\n";
    List.iter (fun (name, v) -> Printf.eprintf "c   %-28s %d\n" name v) counters
  end;
  let gauges = Telemetry.Registry.gauges tel.registry in
  if gauges <> [] then begin
    Printf.eprintf "c gauges:\n";
    List.iter (fun (name, v) -> Printf.eprintf "c   %-28s %g\n" name v) gauges
  end

let unsupported msg =
  Printf.eprintf "c parse error: %s\n" msg;
  print_string "s UNSUPPORTED\n";
  2

let fatal msg =
  Printf.eprintf "c error: %s\n%!" msg;
  exit 2

(* Random hex run id: correlates every artifact (report, recording,
   spans, heartbeats, proof log) a single invocation leaves behind. *)
let make_run_id () =
  let st = Random.State.make_self_init () in
  String.concat "" (List.init 4 (fun _ -> Printf.sprintf "%04x" (Random.State.bits st land 0xffff)))

let solve_file path engine lb bcp time_limit conflict_limit no_cuts cuts_mode cut_rounds
    no_presolve no_lp_branching no_preprocess
    no_adaptive_lb portfolio jobs verify verbosity stats json_file
    proof_file progress_every span_file heartbeat_file heartbeat_every profile_hz metrics_file
    record_file record_ring listen =
  (match verbosity with
  | [] -> ()
  | [ _ ] ->
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Info)
  | _ ->
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug));
  (* Only the bsolo branch-and-bound engine (and the portfolio, whose
     bsolo members log and whose stitcher drops the others) produces
     derivation steps; a silently step-free "proof" from pbs/galena/milp
     would be worse than an error. *)
  (match proof_file with
  | Some _ when (not portfolio) && engine <> Bsolo_engine ->
    fatal
      (Printf.sprintf "--proof is only supported by the bsolo engine and --portfolio (got --engine %s)"
         (engine_name engine))
  | Some _ | None -> ());
  (* Validate the listen address before any work: a typo'd --listen must
     fail fast, not after a long parse. *)
  let listen_addr =
    match listen with
    | None -> None
    | Some spec -> (
      match Obsd.Client.parse_addr spec with
      | Ok (host, port) -> Some (host, port)
      | Error msg -> fatal ("--listen: " ^ msg))
  in
  (match record_ring with
  | Some _ when record_file = None -> fatal "--record-ring needs --record FILE"
  | Some n when n <= 0 -> fatal "--record-ring needs a positive event count"
  | Some _ when portfolio ->
    fatal "--record-ring is not supported with --portfolio (members stream direct recordings)"
  | Some _ | None -> ());
  (* Open the sink before parsing so a bad --proof path fails fast.  The
     portfolio manages its own per-member part sinks and stitches the
     final file itself, so no sink is opened here in that mode. *)
  let proof_sink =
    match proof_file with
    | Some f when not portfolio -> (
      try Some (Proof.Sink.open_file f)
      with Sys_error msg -> fatal ("cannot open proof file: " ^ msg))
    | Some _ | None -> None
  in
  (* A parse abort must not leave a truncated proof log behind: terminate
     whatever was requested with a well-formed empty derivation and the
     NONE conclusion, then close (flush) the sink. *)
  let unsupported msg =
    (match proof_sink with
    | Some sink ->
      Proof.Sink.write sink ("p " ^ Proof.version);
      Proof.Sink.write sink "f 0";
      Proof.Sink.write sink "c NONE";
      Proof.Sink.close sink
    | None -> (
      match proof_file with
      | Some f -> (
        try
          let oc = open_out f in
          Printf.fprintf oc "p %s\nf 0\nc NONE\n" Proof.version;
          close_out oc
        with Sys_error _ -> ())
      | None -> ()));
    unsupported msg
  in
  match parse path with
  | exception Pbo.Opb.Parse_error msg -> unsupported msg
  | exception Pbo.Dimacs.Parse_error msg -> unsupported msg
  | exception Sys_error msg -> unsupported msg
  | problem ->
    Logs.debug (fun m ->
        m "parsed %s: %d vars, %d constraints%s" path (Pbo.Problem.nvars problem)
          (Array.length (Pbo.Problem.constraints problem))
          (if Pbo.Problem.is_satisfaction problem then " (satisfaction)" else ""));
    let run_id = make_run_id () in
    let started = Unix.gettimeofday () in
    let want_report = stats || json_file <> None in
    let observing =
      span_file <> None || heartbeat_file <> None || profile_hz > 0. || metrics_file <> None
      || listen_addr <> None
    in
    let want_telemetry =
      want_report || progress_every > 0 || observing || record_file <> None
    in
    (* The solve's options, built once: the recording header's flags are
       derived from this record and the solve only adds the telemetry
       context and proof logger, so `bsolo replay` reconstructs exactly
       the tree-shaping options the run used. *)
    let options =
      {
        (Bsolo.Options.with_lb lb) with
        bcp;
        time_limit;
        conflict_limit;
        knapsack_cuts = not no_cuts;
        cardinality_inference = not no_cuts;
        cuts = cuts_mode;
        cut_rounds;
        presolve = not no_presolve;
        lp_guided_branching = not no_lp_branching;
        preprocess = not no_preprocess;
        lb_adaptive = not no_adaptive_lb;
        restarts =
          (match engine with
          | Pbs_engine | Galena_engine -> true
          | Bsolo_engine | Milp_engine -> false);
      }
    in
    (* Flight recorder: opened before the telemetry context so the context
       owns it and every engine emits through it.  The portfolio manages
       its own per-member part recordings and stitches the final file
       itself, so none is opened here in that mode. *)
    let recorder =
      match record_file with
      | Some f when not portfolio ->
        let flags =
          Bsolo.Replay.flags_of_options options
          lor if proof_sink <> None then Bsolo.Replay.flag_proof else 0
        in
        let header =
          {
            Telemetry.Recorder.h_run_id = run_id;
            h_engine = engine_name engine;
            h_lb_method = String.lowercase_ascii (Bsolo.Options.lb_method_name lb);
            h_started = started;
            h_nvars = Pbo.Problem.nvars problem;
            h_nconstraints = Array.length (Pbo.Problem.constraints problem);
            h_flags = flags;
            h_lb_every = Bsolo.Options.default.lb_every;
            h_lgr_iters = Bsolo.Options.default.lgr_iters;
          }
        in
        (try Some (Telemetry.Recorder.open_file ?ring:record_ring f header)
         with Sys_error msg -> fatal ("cannot open recording file: " ^ msg))
      | Some _ | None -> None
    in
    let tel =
      if not want_telemetry then None
      else begin
        let spans =
          match span_file with
          | None -> None
          | Some f -> (
            try
              let sp = Telemetry.Span.open_file f in
              Telemetry.Span.header sp ~run_id ~started;
              Some sp
            with Sys_error msg -> fatal ("cannot open span file: " ^ msg))
        in
        (* The main-context cell: observed whenever anything samples it
           (spans, profiler, heartbeats, metrics), inert otherwise so
           silent runs keep the zero-cost hot path. *)
        let cell =
          if observing then begin
            let name = if portfolio then "main" else engine_name engine in
            let c = Telemetry.Profile.Cell.make ~observed:true ~name () in
            (match spans with
            | Some sp -> Telemetry.Span.name_track sp ~track:(Telemetry.Profile.Cell.track c) name
            | None -> ());
            Telemetry.Profile.register c;
            Some c
          end
          else None
        in
        let progress =
          if progress_every > 0 then
            Some
              (Telemetry.Progress.make ~every:progress_every ~out:(fun line ->
                   Printf.eprintf "c %s\n%!" line))
          else None
        in
        Some (Telemetry.Ctx.create ~timing:want_report ?spans ?cell ?progress ?recorder ())
      end
    in
    (* Heartbeat writer: opened before the solve so even an instant run
       gets its header plus the start/stop snapshot pair. *)
    let heartbeat =
      match heartbeat_file, tel with
      | Some f, Some _ -> (
        try Some (Telemetry.Snapshot.open_file f ~run_id ~started ~every:heartbeat_every)
        with Sys_error msg -> fatal ("cannot open heartbeat file: " ^ msg))
      | _ -> None
    in
    (* Every Prometheus consumer — the --metrics textfile and the
       server's GET /metrics — renders the same source list through the
       same renderer, so the two outputs are byte-identical.  Live
       parallel portfolio members contribute their private registries
       under the [portfolio.<name>.] prefix their post-join merge will
       use, so metric names are stable across a member finishing. *)
    let member_lock = Mutex.create () in
    let member_sources = ref [] in
    let on_member_start name reg =
      Mutex.lock member_lock;
      member_sources := (name, reg) :: !member_sources;
      Mutex.unlock member_lock
    in
    let on_member_done name =
      Mutex.lock member_lock;
      member_sources := List.filter (fun (n, _) -> n <> name) !member_sources;
      Mutex.unlock member_lock
    in
    let metrics_sources () =
      let mine =
        match tel with Some t -> [ "", t.Telemetry.Ctx.registry ] | None -> []
      in
      Mutex.lock member_lock;
      let members = List.rev !member_sources in
      Mutex.unlock member_lock;
      mine @ List.map (fun (name, reg) -> "portfolio." ^ name ^ ".", reg) members
    in
    let write_metrics () =
      match metrics_file, tel with
      | Some f, Some _ -> (
        try Telemetry.Promtext.write_file_sources f (metrics_sources ())
        with Sys_error _ -> ())
      | _ -> ()
    in
    (* The observability server: /metrics, /status, /healthz and the
       /events SSE stream, live for the duration of the solve.  /status
       snapshots through its own collector, so its node rates measure
       the interval between consecutive /status requests without
       disturbing the heartbeat ticker's deltas. *)
    let server_ref = ref None in
    let status_coll = Telemetry.Snapshot.collector ?registry:(Option.map (fun t -> t.Telemetry.Ctx.registry) tel) () in
    let status_json () =
      let snap = Telemetry.Snapshot.take status_coll in
      let server_stats =
        match !server_ref with
        | None -> []
        | Some srv ->
          let st = Obsd.Server.stats srv in
          [
            ( "server",
              Telemetry.Json.Obj
                [
                  "clients", Telemetry.Json.Int st.Obsd.Server.clients;
                  "served", Telemetry.Json.Int st.served;
                  "dropped_frames", Telemetry.Json.Int st.dropped;
                ] );
          ]
      in
      Telemetry.Json.to_string
        (Telemetry.Json.Obj
           ([
              "schema", Telemetry.Json.String "bsolo-status/1";
              "run_id", Telemetry.Json.String run_id;
              "engine",
                Telemetry.Json.String (if portfolio then "portfolio" else engine_name engine);
              "instance", Telemetry.Json.String path;
              "started", Telemetry.Json.Float started;
              "uptime", Telemetry.Json.Float (Unix.gettimeofday () -. started);
              "snapshot", Telemetry.Snapshot.encode snap;
            ]
           @ server_stats))
    in
    (match listen_addr with
    | None -> ()
    | Some (host, port) ->
      let srv =
        try
          Obsd.Server.create ~host ~port
            ~metrics:(fun () -> Telemetry.Promtext.render_sources (metrics_sources ()))
            ~status:status_json
            ~stall_after:((3. *. heartbeat_every) +. 1.)
            ()
        with Unix.Unix_error (e, _, _) ->
          fatal
            (Printf.sprintf "--listen %s:%d: %s" host port (Unix.error_message e))
      in
      server_ref := Some srv;
      (* Machine-parsed by the smoke harness; with port 0 this is the
         only place the chosen port is reported. *)
      Printf.printf "c obsd: listening on http://%s:%d\n%!" (Obsd.Server.host srv)
        (Obsd.Server.port srv));
    let stop_server () =
      match !server_ref with
      | None -> ()
      | Some srv ->
        server_ref := None;
        let final =
          Telemetry.Json.to_string
            (Telemetry.Json.Obj
               [
                 "run_id", Telemetry.Json.String run_id;
                 "t", Telemetry.Json.Float (Telemetry.Epoch.now ());
               ])
        in
        Obsd.Server.stop ~final_event:("end", final) srv
    in
    (* Keep a recording / span file / heartbeat (and a proof log) parseable
       on abnormal exit: close (flush) the sinks from signal handlers and
       at_exit.  All closes are idempotent, so the normal shutdown path is
       unaffected. *)
    let close_sinks () =
      (match tel with
      | Some tel when span_file <> None || Option.is_some recorder ->
        Telemetry.Ctx.close tel
      | Some _ | None -> ());
      (match heartbeat with Some hb -> Telemetry.Snapshot.close hb | None -> ());
      (* Connected /events subscribers get the final "end" frame within
         the server's drain grace window before the sockets close. *)
      stop_server ();
      match proof_sink with Some s -> Proof.Sink.close s | None -> ()
    in
    if
      (Option.is_some tel && span_file <> None)
      || Option.is_some heartbeat || Option.is_some proof_sink || Option.is_some recorder
      || listen_addr <> None
    then begin
      at_exit close_sinks;
      let close_and_exit n =
        Sys.Signal_handle
          (fun _ ->
            close_sinks ();
            exit (128 + n))
      in
      List.iter
        (fun (signal, n) ->
          try Sys.set_signal signal (close_and_exit n) with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigint, 2; Sys.sigterm, 15; Sys.sighup, 1 ]
    end;
    let options =
      {
        options with
        telemetry = tel;
        proof = Option.map (fun s -> Proof.create s problem) proof_sink;
      }
    in
    (* Correlate the proof log with the run's other artifacts, and trace
       its periodic flushes as spans on the main track. *)
    Option.iter (fun logger -> Proof.log_comment logger ("run " ^ run_id)) options.proof;
    (match proof_sink, tel with
    | Some sink, Some tel when span_file <> None ->
      let track = Telemetry.Profile.Cell.track tel.Telemetry.Ctx.cell in
      Proof.Sink.set_flush_hook sink (fun ~lines:_ ~seconds ->
          Telemetry.Span.complete ~cat:"io" tel.spans ~track ~name:"proof_flush"
            ~start:(Telemetry.Epoch.now () -. seconds) ~dur:seconds)
    | _ -> ());
    Logs.debug (fun m ->
        m "engine=%s time_limit=%s cuts=%b lp_branching=%b preprocess=%b telemetry=%b"
          (engine_name engine)
          (match time_limit with None -> "none" | Some s -> Printf.sprintf "%.0fs" s)
          (not no_cuts) (not no_lp_branching) (not no_preprocess) (tel <> None));
    let start = Unix.gettimeofday () in
    let incumbents = ref [] in
    let note_incumbent cost =
      incumbents := { Bsolo.Report.at = Unix.gettimeofday () -. start; cost } :: !incumbents
    in
    (* Live monitors: the heartbeat ticker (periodic + SIGUSR1-triggered
       snapshots, each refreshing the metrics file) and the sampling
       phase profiler, both on their own domains for the solve's
       duration. *)
    let ticker =
      if heartbeat = None && !server_ref = None then None
      else begin
        let registry = Option.map (fun t -> t.Telemetry.Ctx.registry) tel in
        (* One emit fans each snapshot out to every live consumer: the
           heartbeat file (which owns file-order sequence numbers), the
           SSE subscribers (with their own stream-order numbering), the
           server's liveness beat, and an "incumbent" event whenever the
           best bound improved since the previous snapshot. *)
        let sse_seq = ref 0 in
        let last_best = ref None in
        let publish_snap snap =
          (match heartbeat with
          | Some hb -> Telemetry.Snapshot.write hb snap
          | None -> ());
          match !server_ref with
          | None -> ()
          | Some srv ->
            Obsd.Server.beat srv;
            let s = { snap with Telemetry.Snapshot.s_seq = !sse_seq } in
            incr sse_seq;
            Obsd.Server.publish srv ~event:"heartbeat"
              ~data:(Telemetry.Json.to_string (Telemetry.Snapshot.encode s));
            (match snap.Telemetry.Snapshot.s_best with
            | Some (cost, from) when !last_best <> Some cost ->
              last_best := Some cost;
              Obsd.Server.publish srv ~event:"incumbent"
                ~data:
                  (Telemetry.Json.to_string
                     (Telemetry.Json.Obj
                        [
                          "cost", Telemetry.Json.Float cost;
                          "from", Telemetry.Json.String from;
                          "t", Telemetry.Json.Float snap.Telemetry.Snapshot.s_t;
                        ]))
            | _ -> ())
        in
        let tk =
          Telemetry.Snapshot.Ticker.start_emit ?registry ~on_tick:write_metrics
            ~emit:publish_snap ~every:heartbeat_every ()
        in
        (try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Telemetry.Snapshot.Ticker.request tk))
         with Invalid_argument _ | Sys_error _ -> ());
        Some tk
      end
    in
    let sampler =
      if profile_hz > 0. then Some (Telemetry.Profile.Sampler.start ~hz:profile_hz ())
      else None
    in
    let portfolio_run = ref None in
    let outcome =
      if portfolio then begin
        let jobs =
          match jobs with
          | Some j -> max 1 j
          | None -> Domain.recommended_domain_count ()
        in
        let budget = match time_limit with Some t -> t | None -> infinity in
        Logs.debug (fun m -> m "portfolio: jobs=%d budget=%g" jobs budget);
        let r =
          Portfolio.solve ?telemetry:tel ~run_id ~observe:observing ~on_member_start
            ~on_member_done ?proof_file ?record_file ~jobs ~budget problem
        in
        portfolio_run := Some (r, jobs);
        r.outcome
      end
      else
        match engine with
        | Bsolo_engine ->
          Bsolo.Solver.solve_with_incumbent_hook ~options
            ~on_incumbent:(fun _ cost -> note_incumbent cost)
            problem
        | Pbs_engine -> Bsolo.Linear_search.solve ~options problem
        | Galena_engine -> Bsolo.Linear_search.solve ~options ~pb_learning:true problem
        | Milp_engine -> Milp.Branch_and_bound.solve ~options problem
    in
    (* Join the monitor domains before reports are assembled: the final
       heartbeat and the profile result must reflect the whole solve. *)
    let profile_result = Option.map Telemetry.Profile.Sampler.stop sampler in
    (match ticker with
    | None -> ()
    | Some tk ->
      Telemetry.Snapshot.Ticker.stop tk;
      (try Sys.set_signal Sys.sigusr1 Sys.Signal_default
       with Invalid_argument _ | Sys_error _ -> ()));
    (match heartbeat with Some hb -> Telemetry.Snapshot.close hb | None -> ());
    write_metrics ();
    (match !server_ref with
    | None -> ()
    | Some srv ->
      let st = Obsd.Server.stats srv in
      stop_server ();
      Printf.printf "c obsd: served %d requests, %d SSE frames dropped\n" st.Obsd.Server.served
        st.dropped);
    (* Engines without the hook still contribute their final incumbent, so
       every report carries a (possibly one-point) trajectory. *)
    (match (if portfolio then None else Some engine), outcome.best with
    | Some Bsolo_engine, _ | _, None -> ()
    | _, Some (_, c) -> note_incumbent c);
    (* Output in the PB-competition style. *)
    (match outcome.status with
    | Bsolo.Outcome.Optimal ->
      (match outcome.best with
      | Some (_, c) -> Printf.printf "o %d\ns OPTIMUM FOUND\n" c
      | None -> Printf.printf "s OPTIMUM FOUND\n")
    | Bsolo.Outcome.Satisfiable -> Printf.printf "s SATISFIABLE\n"
    | Bsolo.Outcome.Unsatisfiable -> Printf.printf "s UNSATISFIABLE\n"
    | Bsolo.Outcome.Unknown ->
      (match outcome.best with
      | Some (_, c) -> Printf.printf "o %d\ns UNKNOWN\n" c
      | None -> Printf.printf "s UNKNOWN\n"));
    (match outcome.best with
    | Some (m, _) ->
      let buf = Buffer.create 256 in
      for v = 0 to Pbo.Model.nvars m - 1 do
        if v > 0 then Buffer.add_char buf ' ';
        if not (Pbo.Model.value m v) then Buffer.add_char buf '-';
        Buffer.add_string buf ("x" ^ string_of_int (v + 1))
      done;
      Printf.printf "v %s\n" (Buffer.contents buf)
    | None -> ());
    Printf.printf "c %s\n" (Format.asprintf "%a" Bsolo.Outcome.pp outcome);
    (match options.proof, proof_file with
    | Some logger, Some f ->
      Proof.Sink.close (Option.get proof_sink);
      Printf.printf "c proof: %s (%d steps, %d uncertified prunes avoided)\n" f
        (Proof.steps logger) (Proof.uncertified logger)
    | _, Some f when portfolio -> Printf.printf "c proof: %s (stitched portfolio log)\n" f
    | _, _ -> ());
    (match recorder, record_file with
    | Some r, Some f ->
      let dropped = Telemetry.Recorder.ring_dropped r in
      Printf.printf "c recording: %s (%d events%s)\n" f
        (Telemetry.Recorder.events_written r)
        (if dropped > 0 then Printf.sprintf ", %d dropped by the ring" dropped else "")
    | None, Some f when portfolio ->
      Printf.printf "c recording: %s (stitched portfolio recording)\n" f
    | _, _ -> ());
    (match !portfolio_run with
    | None -> ()
    | Some (r, jobs) ->
      Printf.printf "c portfolio: jobs=%d winner=%s\n" jobs r.Portfolio.winner;
      List.iter
        (fun (name, o) ->
          Printf.printf "c   %-10s %s\n" name (Format.asprintf "%a" Bsolo.Outcome.pp o))
        r.runs;
      List.iter
        (fun (name, msg) -> Printf.printf "c   %-10s CRASHED: %s\n" name msg)
        r.failures;
      (match r.disagreement with
      | None -> ()
      | Some d -> Printf.printf "c portfolio DISAGREEMENT: %s\n" d));
    (match tel with
    | None -> ()
    | Some tel ->
      if stats then print_stats tel outcome.elapsed;
      (match json_file with
      | None -> ()
      | Some out ->
        let report =
          Bsolo.Report.make ~instance:path
            ~engine:(if portfolio then "portfolio" else engine_name engine)
            ~run_id ~started
            ?profile:(Option.map Telemetry.Profile.Sampler.result_json profile_result)
            ~problem ~options
            ~incumbents:(List.rev !incumbents) ~telemetry:tel outcome
        in
        (try Bsolo.Report.write_file out report
         with Sys_error msg -> fatal ("cannot write report: " ^ msg)));
      Telemetry.Ctx.close tel);
    (if verify then
       match Bsolo.Certify.check problem outcome with
       | Ok () -> Printf.printf "c verification: OK\n"
       | Error e ->
         Printf.printf "c verification: FAILED (%s)\n" e;
         exit 3);
    (match !portfolio_run with
    | Some ({ Portfolio.disagreement = Some _; _ }, _) -> 3
    | Some _ | None -> (
      match outcome.status with
      | Bsolo.Outcome.Optimal | Bsolo.Outcome.Satisfiable | Bsolo.Outcome.Unsatisfiable -> 0
      | Bsolo.Outcome.Unknown -> 1))

let file_arg =
  let doc = "OPB instance file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let engine_arg =
  let choices =
    [
      "bsolo", Bsolo_engine;
      "pbs", Pbs_engine;
      "galena", Galena_engine;
      "milp", Milp_engine;
    ]
  in
  let doc = "Solver engine: bsolo (branch-and-bound + SAT), pbs, galena, or milp." in
  Arg.(value & opt (enum choices) Bsolo_engine & info [ "engine" ] ~doc)

let lb_arg =
  let choices =
    [
      "plain", Bsolo.Options.Plain;
      "mis", Bsolo.Options.Mis;
      "lgr", Bsolo.Options.Lgr;
      "lpr", Bsolo.Options.Lpr;
    ]
  in
  let doc = "Lower-bound procedure for the bsolo engine: plain, mis, lgr or lpr." in
  Arg.(value & opt (enum choices) Bsolo.Options.Lpr & info [ "lb" ] ~doc)

let bcp_arg =
  let choices =
    [
      "watched", Engine.Solver_core.Watched;
      "counting", Engine.Solver_core.Counting;
      "hybrid", Engine.Solver_core.Hybrid;
    ]
  in
  let doc =
    "Boolean constraint propagation strategy: hybrid (per-constraint watched/counting \
     selection, the default), watched, or counting.  All three explore the identical \
     search tree; only propagation throughput differs."
  in
  Arg.(value & opt (enum choices) Engine.Solver_core.Hybrid & info [ "bcp" ] ~doc)

let time_arg =
  let doc = "Wall-clock time limit in seconds." in
  Arg.(value & opt (some float) None & info [ "timeout"; "t" ] ~doc)

let conflict_arg =
  let doc = "Conflict limit." in
  Arg.(value & opt (some int) None & info [ "conflicts" ] ~doc)

let no_cuts_arg =
  let doc = "Disable the knapsack and cardinality incumbent cuts (Section 5)." in
  Arg.(value & flag & info [ "no-cuts" ] ~doc)

let cuts_mode_arg =
  let choices =
    [
      "off", Bsolo.Options.Cuts_off;
      "root", Bsolo.Options.Cuts_root;
      "tree", Bsolo.Options.Cuts_tree;
    ]
  in
  let doc =
    "LP cut separation mode: $(b,off), $(b,root) (separate cover/clique/implied-bound \
     cuts against the fractional LPR optimum at decision level 0 only) or $(b,tree) \
     (separate at every LP evaluation, the default).  Cuts live only in the LP \
     relaxation, managed by an activity-aged pool; in proof mode every cut is certified \
     before use."
  in
  Arg.(value & opt (enum choices) Bsolo.Options.default.cuts & info [ "cuts" ] ~docv:"MODE" ~doc)

let cut_rounds_arg =
  let doc = "Separation/re-solve rounds per LP evaluation (with $(b,--cuts))." in
  Arg.(value & opt int Bsolo.Options.default.cut_rounds & info [ "cut-rounds" ] ~docv:"N" ~doc)

let no_presolve_arg =
  let doc =
    "Disable the exact constraint-level presolve (subset-sum coefficient tightening and \
     dominated-constraint removal)."
  in
  Arg.(value & flag & info [ "no-presolve" ] ~doc)

let no_lp_branching_arg =
  let doc = "Disable LP-guided branching (Section 5)." in
  Arg.(value & flag & info [ "no-lp-branching" ] ~doc)

let no_preprocess_arg =
  let doc = "Disable probing preprocessing." in
  Arg.(value & flag & info [ "no-preprocess" ] ~doc)

let no_adaptive_lb_arg =
  let doc =
    "Disable the adaptive lower-bound schedule (which stretches the effective --lb-every \
     while evaluations keep failing to prune)."
  in
  Arg.(value & flag & info [ "no-adaptive-lb" ] ~doc)

let portfolio_arg =
  let doc =
    "Run the solver portfolio (bsolo-lpr, bsolo-mis, pbs-like, milp) instead of a single \
     engine; see $(b,--jobs) for parallelism.  $(b,--engine) and $(b,--lb) are ignored."
  in
  Arg.(value & flag & info [ "portfolio" ] ~doc)

let jobs_arg =
  let doc =
    "With $(b,--portfolio): number of worker domains.  Defaults to the number of cores \
     (Domain.recommended_domain_count); $(b,--jobs 1) runs the members sequentially under \
     split time slices."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let verify_arg =
  let doc = "Independently re-check the reported model and cost." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let verbose_arg =
  let doc = "Verbose logging; repeat ($(b,-vv)) for debug output." in
  Arg.(value & flag_all & info [ "verbose"; "v" ] ~doc)

let stats_arg =
  let doc = "Print a per-phase time table and the counter registry to stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let json_arg =
  let doc = "Write a machine-readable run report (see docs/OBSERVABILITY.md) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let proof_file_arg =
  let doc =
    "Stream a certified derivation log (format $(b,bsolo-pbp 1), see docs/PROOFS.md) to \
     $(docv): RUP steps for learned clauses, explicit multiplier certificates for \
     bound-based prunes, verified incumbents, and a terminating conclusion.  Re-check with \
     $(b,bsolo checkproof).  Supported by the bsolo engine and $(b,--portfolio)."
  in
  Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc = "Print a progress line to stderr every $(docv) conflicts (0 disables)." in
  Arg.(value & opt int 0 & info [ "progress" ] ~docv:"N" ~doc)

let span_file_arg =
  let doc =
    "Write engine-phase / lower-bounding / proof-flush / portfolio-member spans as a Chrome \
     trace-event JSON file to $(docv), loadable in Perfetto (one track per solver context, \
     timestamps on one shared epoch across domains).  Validate with $(b,bsolo inspect --spans)."
  in
  Arg.(value & opt (some string) None & info [ "trace-spans" ] ~docv:"FILE" ~doc)

(* The JSONL search trace is gone.  Declaring the exact name keeps
   cmdliner's prefix matching from routing a stale [--trace FILE] to
   [--trace-spans]; every value is a command-line error. *)
let removed_trace_arg =
  let reject _ =
    Error
      (`Msg
        "the JSONL search trace was removed: use --record FILE for the search-event stream \
         or --trace-spans FILE for a Chrome span trace")
  in
  let doc = "Removed.  Use $(b,--record) or $(b,--trace-spans) instead." in
  Arg.(
    value
    & opt (some (conv (reject, fun fmt () -> Format.pp_print_string fmt ""))) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

let heartbeat_arg =
  let doc =
    "Append a JSONL heartbeat snapshot (per-member phase, bounds, gap, node rate, incumbent \
     provenance, counter deltas) to $(docv) every $(b,--heartbeat-every) seconds; SIGUSR1 \
     forces an immediate snapshot.  Tail live with $(b,bsolo inspect --live)."
  in
  Arg.(value & opt (some string) None & info [ "heartbeat" ] ~docv:"FILE" ~doc)

let heartbeat_every_arg =
  let doc = "Heartbeat period in seconds." in
  Arg.(value & opt float 1.0 & info [ "heartbeat-every" ] ~docv:"SECONDS" ~doc)

let profile_hz_arg =
  let doc =
    "Run the sampling phase profiler at $(docv) samples per second (0 disables).  The folded \
     stacks and self-time table land in the $(b,--json) report; render with \
     $(b,bsolo inspect --profile)."
  in
  Arg.(value & opt float 0. & info [ "profile-hz" ] ~docv:"HZ" ~doc)

let metrics_arg =
  let doc =
    "Write the counter/gauge/histogram registry in Prometheus text exposition format to \
     $(docv) (atomically, on every heartbeat tick and at exit) — for the node_exporter \
     textfile collector or any file scraper."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let record_arg =
  let doc =
    "Record the complete search — decisions, backjumps, lower-bound evaluations, prunes with \
     blame, learned constraints, incumbents, imports, restarts — as a compact binary flight \
     recording (format $(b,bsolo-rec/1), see docs/FORMATS.md) to $(docv).  Analyse with \
     $(b,bsolo inspect forensics), re-execute and cross-check with $(b,bsolo replay).  With \
     $(b,--portfolio), each member records a .part file and the final file is stitched from \
     them like a portfolio proof log."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)

let record_ring_arg =
  let doc =
    "With $(b,--record): keep only the last $(docv) events in a bounded in-memory ring, \
     written out at close (also from the signal handlers), so an arbitrarily long run leaves \
     a small recording of its final moments.  A ring recording supports forensics but not \
     $(b,bsolo replay) — the dropped prefix makes the decision sequence incomplete."
  in
  Arg.(value & opt (some int) None & info [ "record-ring" ] ~docv:"N" ~doc)

let listen_arg =
  let doc =
    "Serve live observability over HTTP on $(docv) (e.g. 127.0.0.1:8080; port 0 picks a \
     free port, reported on a $(b,c obsd:) line): $(b,/metrics) Prometheus exposition \
     (byte-identical to the $(b,--metrics) textfile), $(b,/status) in-progress run report \
     JSON, $(b,/healthz) liveness, $(b,/events) SSE heartbeat/incumbent stream.  Watch \
     with $(b,bsolo top --connect).  Bind 127.0.0.1 unless the endpoint really must be \
     reachable remotely — the server is unauthenticated."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

(* --- inspect subcommand ---------------------------------------------------- *)

let print_lines = List.iter print_endline

let inspect_report path json =
  let label field = Option.bind (Inspect.Json.member field json) Inspect.Json.to_string_opt in
  Printf.printf "== %s ==\n" path;
  (match label "engine", label "instance", label "status" with
  | engine, instance, status ->
    let num field =
      match Option.bind (Inspect.Json.member field json) Inspect.Json.to_int with
      | Some v -> string_of_int v
      | None -> "-"
    in
    Printf.printf "engine=%s instance=%s status=%s cost=%s proved_lb=%s elapsed=%.3fs\n"
      (Option.value ~default:"?" engine)
      (Option.value ~default:"?" instance)
      (Option.value ~default:"?" status)
      (num "cost") (num "proved_lb") (Inspect.elapsed json));
  print_newline ();
  print_endline "per-procedure effectiveness:";
  print_lines (Inspect.render_effectiveness (Inspect.effectiveness json));
  print_newline ();
  print_endline "gap-closure timeline:";
  print_lines (Inspect.render_gap_timeline (Inspect.gap_timeline json));
  print_newline ();
  print_endline "search-tree shape:";
  print_lines (Inspect.render_tree_shape json);
  print_newline ();
  print_endline "propagation engine:";
  print_lines (Inspect.render_bcp json);
  print_newline ();
  print_endline "cut pool and presolve:";
  print_lines (Inspect.render_cuts json);
  print_newline ()

(* Tail a heartbeat JSONL file, re-rendering the status view as
   snapshots arrive; stops at the end record.  The writer flushes every
   complete line, so a torn tail line is at worst one missed repaint. *)
let follow_heartbeat path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let seen = ref [] in
  let finished = ref false in
  let render () =
    print_string "\027[H\027[2J";
    List.iter print_endline (Inspect.heartbeat_view (List.rev !seen));
    flush stdout
  in
  while not !finished do
    let progressed = ref false in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then begin
           match Inspect.Json.of_string line with
           | Ok j ->
             seen := j :: !seen;
             progressed := true;
             if Inspect.Json.member "end" j = Some (Inspect.Json.Bool true) then raise Exit
           | Error _ -> ()
         end
       done
     with
    | End_of_file -> ()
    | Exit -> finished := true);
    if !progressed then render ();
    if not !finished then Unix.sleepf 0.3
  done;
  print_endline "run ended.";
  0

(* `bsolo inspect forensics REC`: reconstruct the search tree from a
   flight recording and explain where it went. *)
let forensics_run rec_path node =
  let error msg =
    Printf.eprintf "bsolo inspect: %s\n" msg;
    2
  in
  match Telemetry.Recorder.read_file rec_path with
  | Error msg -> error msg
  | Ok rc ->
    Printf.printf "== %s (flight recording) ==\n" rec_path;
    (match rc.Telemetry.Recorder.r_header with
    | Some h ->
      Printf.printf "engine=%s lb=%s run=%s vars=%d constraints=%d flags=0x%x\n"
        h.Telemetry.Recorder.h_engine
        (if h.h_lb_method = "" then "-" else h.h_lb_method)
        (if h.h_run_id = "" then "-" else h.h_run_id)
        h.h_nvars h.h_nconstraints h.h_flags
    | None -> print_endline "no header (file broke before the header frame)");
    if rc.r_truncated then print_endline "torn tail: a truncated trailing frame was dropped";
    print_newline ();
    (match node with
    | Some n -> (
      match Inspect.Forensics.node_fate rc n with
      | Ok f ->
        print_lines (Inspect.Forensics.render_node_fate f);
        0
      | Error msg -> error msg)
    | None ->
      print_lines (Inspect.Forensics.render (Inspect.Forensics.analyze rc));
      0)

let inspect_run files diff_mode spans_file live_file follow check profile_mode
    threshold show_all node metrics_file =
  let error msg =
    Printf.eprintf "bsolo inspect: %s\n" msg;
    2
  in
  let load path k = match Inspect.load_file path with Ok j -> k j | Error msg -> error msg in
  match metrics_file with
  | Some path -> (
    match Telemetry.Promtext.lint_file path with
    | exception Sys_error msg -> error msg
    | Ok samples ->
      Printf.printf "== %s (metrics) ==\nOK: lint-clean exposition, %d samples\n" path samples;
      0
    | Error violations ->
      Printf.printf "== %s (metrics) ==\n" path;
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
      1)
  | None ->
  match files with
  | "forensics" :: rest -> (
    match rest with
    | [ rec_path ] -> forensics_run rec_path node
    | [] -> error "forensics needs a --record recording file"
    | _ -> error "forensics takes exactly one recording file")
  | _ ->
  match spans_file with
  | Some path ->
    (match Inspect.load_spans path with
    | Error msg -> error msg
    | Ok events ->
      Printf.printf "== %s (spans) ==\n" path;
      (match Inspect.validate_spans events with
      | Ok stats ->
        print_lines (Inspect.render_span_stats stats);
        0
      | Error violations ->
        List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
        1))
  | None ->
  match live_file with
  | Some path when follow -> follow_heartbeat path
  | Some path ->
    (match Inspect.load_jsonl path with
    | Error msg -> error msg
    | Ok (lines, _skipped) ->
      Printf.printf "== %s (heartbeat) ==\n" path;
      print_lines (Inspect.heartbeat_view lines);
      if check then (
        match Inspect.heartbeat_check lines with
        | Ok summary ->
          print_lines summary;
          0
        | Error violations ->
          List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
          1)
      else 0)
  | None ->
  if profile_mode then begin
    match files with
    | [] -> error "--profile needs a run report (--json output of a --profile-hz run)"
    | files ->
      let rec go worst = function
        | [] -> worst
        | path :: rest ->
          load path (fun json ->
              Printf.printf "== %s (profile) ==\n" path;
              print_lines (Inspect.render_profile json);
              print_newline ();
              let rc =
                match Inspect.profile_agreement json with
                | Some pa when (not pa.pa_ok) && (not pa.pa_low) && not pa.pa_no_timers -> 1
                | _ -> 0
              in
              go (max worst rc) rest)
      in
      go 0 files
  end
  else
  match diff_mode, files with
  | true, [ a; b ] ->
    load a (fun ja ->
        load b (fun jb ->
            let entries = Inspect.diff ~threshold ja jb in
            Printf.printf "== diff %s -> %s (threshold %.0f%%) ==\n" a b (100. *. threshold);
            print_lines (Inspect.render_diff ~all:show_all entries);
            if Inspect.has_regression entries then 1 else 0))
  | true, _ -> error "--diff needs exactly two report files"
  | false, [] -> error "no report file given"
  | false, files ->
    let rec go = function
      | [] -> 0
      | path :: rest ->
        load path (fun json ->
            inspect_report path json;
            go rest)
    in
    go files

let inspect_files_arg =
  let doc =
    "Run report(s) (--json output) to analyse; or $(b,forensics) $(i,RECORDING) to \
     reconstruct the search tree from a --record flight recording (per-procedure subtree \
     blame by depth band, wasted work, gap stalls)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"REPORT" ~doc)

let diff_flag =
  let doc = "Compare two reports and flag counter/time regressions beyond --threshold." in
  Arg.(value & flag & info [ "diff" ] ~doc)

let inspect_spans_arg =
  let doc =
    "Validate a --trace-spans Chrome trace file: one run header, per-track B/E well-nesting, \
     monotone clocks.  Exit 1 on any violation."
  in
  Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE" ~doc)

let inspect_live_arg =
  let doc = "Render a --heartbeat JSONL file as a terminal status view (see also --follow)." in
  Arg.(value & opt (some string) None & info [ "live" ] ~docv:"FILE" ~doc)

let inspect_follow_arg =
  let doc = "With --live, tail the file and repaint as snapshots arrive." in
  Arg.(value & flag & info [ "follow" ] ~doc)

let inspect_check_arg =
  let doc =
    "With --live, verify heartbeat invariants (>= 2 snapshots, non-widening gaps, end record); \
     exit 1 on violation."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let inspect_profile_arg =
  let doc =
    "Render the sampling profile embedded in a run report (folded stacks, self-time table) and \
     cross-check the dominant phase against the exact timers; exit 1 when they disagree beyond \
     15%."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let threshold_arg =
  let doc = "Relative regression threshold for --diff (0.25 = +25%)." in
  Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"FRACTION" ~doc)

let diff_all_arg =
  let doc = "In --diff mode, print all compared metrics, not only regressions." in
  Arg.(value & flag & info [ "all" ] ~doc)

let inspect_node_arg =
  let doc =
    "With $(b,forensics): explain one decision ($(docv) is its 1-based index in recording \
     order) — the path that led to it and the exact event that closed its subtree."
  in
  Arg.(value & opt (some int) None & info [ "node" ] ~docv:"N" ~doc)

let inspect_metrics_arg =
  let doc =
    "Validate a Prometheus text exposition file ($(b,--metrics) output or a saved \
     $(b,/metrics) scrape) with the in-repo lint; exit 1 on any violation."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let inspect_cmd =
  let doc = "analyse run reports, spans, heartbeats and flight recordings" in
  let info = Cmd.info "inspect" ~doc in
  Cmd.v info
    Term.(
      const inspect_run $ inspect_files_arg $ diff_flag $ inspect_spans_arg
      $ inspect_live_arg $ inspect_follow_arg $ inspect_check_arg $ inspect_profile_arg
      $ threshold_arg $ diff_all_arg $ inspect_node_arg $ inspect_metrics_arg)

(* --- checkproof subcommand -------------------------------------------------- *)

let checkproof_run problem_path proof_path =
  let error msg =
    Printf.eprintf "bsolo checkproof: %s\n" msg;
    print_string "s NOT VERIFIED\n";
    2
  in
  match parse problem_path with
  | exception Pbo.Opb.Parse_error msg -> error ("parse error: " ^ msg)
  | exception Pbo.Dimacs.Parse_error msg -> error ("parse error: " ^ msg)
  | exception Sys_error msg -> error msg
  | problem -> (
    match Proof.Check.check_file problem proof_path with
    | exception Sys_error msg -> error msg
    | Error msg ->
      Printf.printf "c %s\n" msg;
      print_string "s NOT VERIFIED\n";
      1
    | Ok s ->
      Printf.printf
        "c proof: %d steps (%d rup, %d bound, %d farkas, %d solutions, %d imports, %d cuts)\n"
        s.Proof.Check.steps s.rup s.bound s.farkas s.solutions s.imports s.cuts;
      (match s.sections with
      | [] | [ "" ] -> ()
      | names -> Printf.printf "c sections: %s\n" (String.concat " " names));
      Printf.printf "s VERIFIED %s\n" s.verdict;
      0)

let checkproof_cmd =
  let doc = "replay a --proof log against its instance with exact arithmetic" in
  let problem_arg =
    let doc = "OPB/CNF instance the proof was produced from." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let proof_arg =
    let doc = "Proof log written by $(b,--proof)." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"PROOF" ~doc)
  in
  Cmd.v (Cmd.info "checkproof" ~doc) Term.(const checkproof_run $ problem_arg $ proof_arg)

(* --- replay subcommand ------------------------------------------------------ *)

let replay_run problem_path rec_path check proof_out bcp =
  let error msg =
    Printf.eprintf "bsolo replay: %s\n" msg;
    2
  in
  match parse problem_path with
  | exception Pbo.Opb.Parse_error msg -> error ("parse error: " ^ msg)
  | exception Pbo.Dimacs.Parse_error msg -> error ("parse error: " ^ msg)
  | exception Sys_error msg -> error msg
  | problem -> (
    match Telemetry.Recorder.read_file rec_path with
    | Error msg -> error msg
    | Ok rc -> (
      if rc.Telemetry.Recorder.r_truncated then
        print_endline "c recording has a torn tail: replaying the surviving prefix";
      match Bsolo.Replay.run ?proof_out ?bcp problem rc with
      | Error msg -> error msg
      | Ok rep ->
        Printf.printf "c replayed outcome: %s\n"
          (Format.asprintf "%a" Bsolo.Outcome.pp rep.Bsolo.Replay.outcome);
        let proof_ok =
          match proof_out with
          | None -> true
          | Some p -> (
            match Proof.Check.check_file problem p with
            | exception Sys_error msg ->
              Printf.printf "c regenerated proof: NOT VERIFIED (%s)\n" msg;
              false
            | Error msg ->
              Printf.printf "c regenerated proof: NOT VERIFIED (%s)\n" msg;
              false
            | Ok s ->
              Printf.printf "c regenerated proof: VERIFIED %s (%d steps)\n"
                s.Proof.Check.verdict s.Proof.Check.steps;
              true)
        in
        (match rep.mismatch with
        | Some m ->
          Printf.printf "c mismatch at event %d/%d:\nc   recorded: %s\nc   replayed: %s\n"
            m.Bsolo.Replay.at rep.total m.expected m.got;
          print_string "s REPLAY MISMATCH\n";
          1
        | None ->
          Printf.printf "c replay: %d/%d recorded events matched\n" rep.checked rep.total;
          if not proof_ok then begin
            print_string "s REPLAY MISMATCH\n";
            1
          end
          else if check && (rep.checked < rep.total || rc.r_truncated) then begin
            (* --check demands the full event stream; a truncated tail or
               unreached suffix replays fine but proves less. *)
            print_string "s REPLAY INCOMPLETE\n";
            1
          end
          else begin
            print_string "s REPLAY OK\n";
            0
          end)))

let replay_cmd =
  let doc =
    "re-execute a --record flight recording deterministically and cross-check every event"
  in
  let problem_arg =
    let doc = "OPB/CNF instance the recording was produced from." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROBLEM" ~doc)
  in
  let rec_arg =
    let doc = "Flight recording written by $(b,--record) (not $(b,--record-ring))." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RECORDING" ~doc)
  in
  let check_arg =
    let doc =
      "Exit 1 unless the replay matches the complete recording: every recorded event \
       reproduced in order with identical payloads, no torn tail."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let proof_arg =
    let doc =
      "For a recording made with $(b,--proof): keep the replay's regenerated proof log at \
       $(docv) and re-check it with exact arithmetic."
    in
    Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)
  in
  let replay_bcp_arg =
    let choices =
      [
        "watched", Engine.Solver_core.Watched;
        "counting", Engine.Solver_core.Counting;
        "hybrid", Engine.Solver_core.Hybrid;
      ]
    in
    let doc =
      "Propagation strategy for the replaying engine.  Recordings carry no mode — every \
       $(b,--bcp) mode emits the identical event stream — so replaying under a different \
       mode must still match byte for byte."
    in
    Arg.(value & opt (some (enum choices)) None & info [ "bcp" ] ~doc)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const replay_run $ problem_arg $ rec_arg $ check_arg $ proof_arg $ replay_bcp_arg)

(* --- top subcommand --------------------------------------------------------- *)

(* `bsolo top --connect HOST:PORT`: subscribe to the /events SSE stream
   of a --listen run and repaint the same status view `inspect --live`
   renders from a heartbeat file.  `--get PATH` instead fetches one
   endpoint and prints the body — a dependency-free curl for scripts. *)
let top_run connect get_path frames =
  let error msg =
    Printf.eprintf "bsolo top: %s\n" msg;
    2
  in
  match connect with
  | None -> error "needs --connect HOST:PORT (the address of a --listen run)"
  | Some spec -> (
    match Obsd.Client.parse_addr spec with
    | Error msg -> error msg
    | Ok (host, port) -> (
      match get_path with
      | Some path -> (
        match Obsd.Client.get ~host ~port path with
        | Ok (200, body) ->
          print_string body;
          0
        | Ok (status, body) ->
          Printf.eprintf "bsolo top: HTTP %d\n" status;
          print_string body;
          1
        | Error msg -> error msg)
      | None ->
        let seen = ref [] in
        let rendered = ref 0 in
        let render () =
          print_string "\027[H\027[2J";
          List.iter print_endline (Inspect.heartbeat_view (List.rev !seen));
          flush stdout
        in
        let finished = ref false in
        let on_event ~event ~data =
          match event with
          | "heartbeat" -> (
            match Inspect.Json.of_string data with
            | Ok j ->
              seen := j :: !seen;
              incr rendered;
              render ();
              frames <= 0 || !rendered < frames
            | Error _ -> true)
          | "end" ->
            finished := true;
            false
          | _ -> true
        in
        match Obsd.Client.events ~host ~port ~on_event () with
        | Ok () ->
          if !rendered = 0 then error "stream ended before the first heartbeat"
          else begin
            print_endline (if !finished then "run ended." else "detached.");
            0
          end
        | Error msg -> error msg))

let top_cmd =
  let doc = "live status view of a running --listen solve (over its SSE stream)" in
  let connect_arg =
    let doc = "Address of the running solver's $(b,--listen) endpoint." in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let get_arg =
    let doc =
      "Fetch one endpoint path (e.g. $(b,/metrics), $(b,/status), $(b,/healthz)) and \
       print the response body instead of streaming; exit 1 on a non-200 status."
    in
    Arg.(value & opt (some string) None & info [ "get" ] ~docv:"PATH" ~doc)
  in
  let frames_arg =
    let doc = "Detach after rendering $(docv) heartbeat frames (0 streams until the run ends)." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const top_run $ connect_arg $ get_arg $ frames_arg)

(* --- entry point ----------------------------------------------------------- *)

let solve_term =
  Term.(
    const (fun (_ : unit option) solve -> solve)
    $ removed_trace_arg
    $ (const solve_file $ file_arg $ engine_arg $ lb_arg $ bcp_arg $ time_arg $ conflict_arg $ no_cuts_arg
    $ cuts_mode_arg $ cut_rounds_arg $ no_presolve_arg
    $ no_lp_branching_arg $ no_preprocess_arg $ no_adaptive_lb_arg
    $ portfolio_arg $ jobs_arg $ verify_arg $ verbose_arg $ stats_arg $ json_arg
    $ proof_file_arg $ progress_arg $ span_file_arg $ heartbeat_arg $ heartbeat_every_arg
    $ profile_hz_arg $ metrics_arg $ record_arg $ record_ring_arg $ listen_arg))

let cmd =
  let doc = "pseudo-Boolean optimizer with lower bounding (bsolo reproduction)" in
  let info = Cmd.info "bsolo" ~version:"1.0.0" ~doc in
  let solve_cmd = Cmd.v (Cmd.info "solve" ~doc:"solve an OPB/CNF instance (default)") solve_term in
  Cmd.group ~default:solve_term info
    [ solve_cmd; inspect_cmd; checkproof_cmd; replay_cmd; top_cmd ]

(* Backward compatibility: `bsolo FILE [flags]` predates the subcommand
   group, so a first argument that is not a command name is routed to the
   implicit `solve`. *)
let argv =
  let argv = Sys.argv in
  if Array.length argv > 1 then begin
    match argv.(1) with
    | "inspect" | "solve" | "checkproof" | "replay" | "top" -> argv
    | s when String.length s > 0 && s.[0] = '-' -> argv
    | _ -> Array.concat [ [| argv.(0); "solve" |]; Array.sub argv 1 (Array.length argv - 1) ]
  end
  else argv

let () = exit (Cmd.eval' ~argv cmd)
