(* One telemetry context per solver run: phase timer, counter registry,
   span sink, profile cell, progress reporter and flight recorder travel
   together.  [silent] is the default used when the caller asked for
   nothing: counters still accumulate (they back the outcome snapshot)
   but the timer is off, no spans or search events are written, the
   cell is inert and no progress is printed. *)

type t = {
  timer : Timer.t;
  registry : Registry.t;
  spans : Span.t;
  cell : Profile.Cell.t;
  progress : Progress.t;
  recorder : Recorder.t;
}

let silent () =
  {
    timer = Timer.create ();
    registry = Registry.create ();
    spans = Span.disabled ();
    cell = Profile.Cell.disabled ();
    progress = Progress.disabled ();
    recorder = Recorder.disabled ();
  }

let create ?(timing = true) ?spans ?cell ?progress ?recorder () =
  {
    timer = Timer.create ~enabled:timing ();
    registry = Registry.create ();
    spans = (match spans with Some s -> s | None -> Span.disabled ());
    cell = (match cell with Some c -> c | None -> Profile.Cell.disabled ());
    progress = (match progress with Some p -> p | None -> Progress.disabled ());
    recorder = (match recorder with Some r -> r | None -> Recorder.disabled ());
  }

(* Phase attribution for the whole observability stack in one call:
   exact self-time (timer), sampled visibility (cell push/pop), and —
   for coarse phases only, the hot inner-search phases fire far too
   often — one tracing span.  When neither cell nor spans are live this
   is exactly Timer.with_phase: one extra load and branch. *)
let with_phase t phase f =
  if Profile.Cell.observed t.cell || Span.enabled t.spans then begin
    Profile.Cell.push t.cell phase;
    let sp =
      if Phase.coarse phase && Span.enabled t.spans then
        Span.begin_ t.spans ~track:(Profile.Cell.track t.cell) (Phase.name phase)
      else Span.null_span
    in
    Fun.protect
      ~finally:(fun () ->
        Span.end_ t.spans sp;
        Profile.Cell.pop t.cell)
      (fun () -> Timer.with_phase t.timer phase f)
  end
  else Timer.with_phase t.timer phase f

let close t =
  Span.close t.spans;
  Recorder.close t.recorder
