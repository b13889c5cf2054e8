open Pbo

(** LP-based branch-and-bound for 0-1 integer programs — the stand-in for
    the commercial MILP solver (CPLEX) used as a baseline in Table 1.

    Best-bound node selection, most-fractional branching, an LP-rounding
    primal heuristic, and ceiling-based integral bound tightening.  One
    {!Simplex.Incremental} LP serves the whole tree: a node's fixings are
    applied as column-bound edits and the dual simplex re-optimizes from
    the previous node's basis.  This matches the "general-purpose solver"
    role: strong on optimization instances, weak on pure satisfaction
    instances where the relaxation carries no information.  It shares no
    search code with the bsolo driver, so it serves as an independent
    reference. *)

val solve : ?options:Bsolo.Options.t -> Problem.t -> Bsolo.Outcome.t
(** Honours [time_limit] and [node_limit], plus the cooperative portfolio
    hooks: [external_incumbent] is polled once per node and tightens the
    best-bound pruning test (costs compare offset-included, directly),
    [should_stop] is checked in the budget test and inside each node's
    LP (with the deadline, every 64 simplex iterations), and
    [on_incumbent] is called on every improving rounded model.  Other
    options are ignored. *)
