(** Lower bounding by linear-programming relaxation (Section 3.1) with
    the bound-conflict explanation of Section 4.2 and the LP-guided
    branching hint of Section 5.

    One fixed-structure LP over all variables ({!Residual.Full}) is kept
    alive across search nodes: its column bounds track the trail via
    {!Engine.Solver_core.drain_changed_vars} and {!Simplex.Incremental}
    re-optimizes it with a dual simplex from the previous basis.  Fixing
    the assigned columns turns the full LP into the residual relaxation
    ([0 <= x <= 1] on the free variables), so the full LP optimum minus
    the path cost equals the residual LP optimum; [ceil] of it
    lower-bounds the cost of any completion.  The explanation is built
    from the rows that are tight at the LP optimum (rows with zero
    surplus); when the LP is infeasible, from the rows of the Farkas
    witness, and the bound is [cap].

    A solve is skipped entirely when the cached outcome is provably
    still valid (no effective edits; fixes landing exactly on the
    previous LP optimum; pure tightenings of an infeasible system).

    Telemetry: [lpr.calls] / [lpr.warm_hits] / [lpr.cold_falls] /
    [lpr.cache_hits] counters (one of warm/cold per evaluation that
    re-solved; [simplex.iterations] counts every simplex step); cut
    separation and the splicing of its rows run in the [separate] phase;
    the solver records each call as one [Lb_eval] flight-recorder
    frame. *)

type inc

val make : ?cuts:Cuts.config -> Engine.Solver_core.t -> inc
(** Snapshot the engine's lower-bounding constraint set and current
    assignment.  Create once per search (after preprocessing); the
    constraint rows are fixed from then on — later learned constraints
    never join the LP.

    With [cuts], each {!compute_inc} evaluation runs a bounded
    separation loop on top of the fixed rows: solve, separate violated
    cover/clique/implied-bound cuts against the fractional optimum
    ({!Cuts.Pool.separate}), splice them in as extra rows
    ({!Simplex.Incremental.add_row}) and re-solve warm, up to
    [cuts.rounds] times ([Root] mode separates at decision level 0
    only).  After the final optimal solve the pool ages its rows
    against the duals and stale zero-dual cut rows are dropped from the
    live LP.  Cut rows carry their own proof references and false
    literals into bound-conflict certificates and explanations. *)

val compute_inc : inc -> cap:int -> Bound.t
(** Evaluate the bound at the engine's current assignment.  [cap] is the
    value reported when the relaxation is infeasible; pass at least
    [upper - path] so the node prunes.  A fresh [make] followed by one
    call is a cold solve of the residual LP. *)
