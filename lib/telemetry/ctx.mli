(** One telemetry context per solver run.

    Phase timer, instrument registry, span sink, profile cell, progress
    reporter and flight recorder travel together.  {!silent} is the
    default used when the caller asked for nothing: counters still
    accumulate (they back the outcome snapshot) but the timer is off, no
    spans or search events are written, the cell is inert and no
    progress is printed.

    Domain-safety: a context is single-domain except for its span sink
    and recorder (mutex-guarded) and its profile cell (single writer,
    any readers).  Parallel portfolio workers each get a private
    context — own registry, own timer, own cell, own recorder, disabled
    progress — that shares the parent's span sink; per-worker registries
    are merged after the domains are joined. *)

type t = {
  timer : Timer.t;
  registry : Registry.t;
  spans : Span.t;
  cell : Profile.Cell.t;
  progress : Progress.t;
  recorder : Recorder.t;
}

val silent : unit -> t

val create :
  ?timing:bool ->
  ?spans:Span.t ->
  ?cell:Profile.Cell.t ->
  ?progress:Progress.t ->
  ?recorder:Recorder.t ->
  unit ->
  t
(** [timing] defaults to [true]; omitted [spans]/[progress]/[recorder]
    are disabled and an omitted [cell] is inert. *)

val with_phase : t -> Phase.t -> (unit -> 'a) -> 'a
(** Run [f] attributed to the phase across the whole observability
    stack: exact self-time ({!Timer.with_phase}), the sampled phase
    stack ({!Profile.Cell.push}/[pop]), and — for {!Phase.coarse} phases
    only — one tracing span on this context's track.  Exception-safe.
    With no cell observed and no span sink this is exactly
    [Timer.with_phase] plus one load and branch. *)

val close : t -> unit
(** Flush and close the span sink and the recorder (idempotent). *)
