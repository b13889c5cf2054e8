open Pbo

(** Cuts derived from the objective when a new incumbent is found
    (Section 5 of the paper).

    Every cut comes from a {e source}: the knapsack cut (10) has one, and
    so has each cardinality constraint with [V > 0] (eqs. 11-13).  A
    source fixes the cut's left-hand side; a new incumbent only raises
    its degree.  Drivers compute the sources once per solve and keep one
    engine slot per source ({!Engine.Solver_core.tighten_cut}), so a new
    incumbent costs one degree update per source. *)

type source

val knapsack_source : Problem.t -> source
(** The source of the knapsack cut (10), over every cost literal. *)

val cardinality_sources : Problem.t -> source list
(** One source per cardinality constraint [sum_{j in K} l_j >= U] of the
    problem whose [V] (the sum of the [U] smallest literal costs within
    [K]) is positive, in constraint order. *)

val cut : source -> upper:int -> Constr.norm
(** The source's cut for incumbent cost [upper] (objective offset
    excluded): [sum c_j l_j <= upper - 1 - V] over the source's cost
    terms ([V = 0] for the knapsack source).  Once the normalized degree
    reaches the largest cost, successive cuts share one term array and
    differ only in their degree. *)

val origin : source -> int option
(** The index into [Problem.constraints] of a cardinality source's
    constraint — the reference a proof log's [d] step names; [None] for
    the knapsack source. *)

val slot : source -> int
(** The engine slot the source's cut lives in: [0] for the knapsack
    source, [cid + 1] for the cardinality constraint [cid]. *)

val upper_cut : Problem.t -> upper:int -> Constr.norm
(** The knapsack constraint (10): [sum c_j l_j <= upper - 1] over the
    objective's cost literals, where [upper] is the incumbent cost
    {e without} the objective offset. *)

val cardinality_inferences : Problem.t -> upper:int -> Constr.norm list
(** The inferences (11)-(13): for every cardinality constraint
    [sum_{j in K} l_j >= U] of the problem, any solution pays at least
    [V] = sum of the [U] smallest literal costs within [K], so
    [sum_{j not in K} c_j l_j <= upper - 1 - V].  Only constraints with
    [V > 0] produce a cut. *)

val cardinality_inferences_cids : Problem.t -> upper:int -> (int * Constr.norm) list
(** As {!cardinality_inferences}, with each cut paired with the index of
    the cardinality constraint it came from (into [Problem.constraints]) —
    the reference a proof log's [d] step names so the checker can
    recompute the same cut.  {!Proof.cardinality_cut} mirrors this
    computation per constraint. *)
