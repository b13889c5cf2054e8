(* Shared flushing of leaf-library stat records (simplex, subgradient)
   into a telemetry registry.  The leaf libraries stay free of telemetry
   dependencies; the lower-bound procedures bridge per-call records into
   the shared counter namespace after each evaluation. *)

let add reg name n =
  if n <> 0 then Telemetry.Counter.add (Telemetry.Registry.counter reg name) n

let flush_simplex reg (s : Simplex.stats) =
  add reg "simplex.calls" s.calls;
  add reg "simplex.rebuilds" s.rebuilds;
  add reg "simplex.iterations" s.iterations;
  add reg "simplex.pivots" s.pivots;
  add reg "simplex.refreshes" s.refreshes

let flush_subgradient reg (s : Lagrangian.Subgradient.stats) =
  add reg "subgradient.calls" s.calls;
  add reg "subgradient.iterations" s.iterations;
  add reg "subgradient.improvements" s.improvements;
  add reg "subgradient.halvings" s.halvings
