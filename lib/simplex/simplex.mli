(** Bounded-variable revised dual simplex with one entry point,
    {!Incremental}: a persistent LP that is re-optimized warm after
    column-bound and row edits.

    Solves

      minimize    c x
      subject to  row_i :  a_i x (>= | <= | =) b_i,   i = 1..m
                  lower_j <= x_j <= upper_j

    Every structural column must have finite bounds ({!Incremental.create}
    raises [Invalid_argument] otherwise).  This is the LP substrate of the
    paper's LPR lower bound (Section 3.1) and of the MILP baseline standing
    in for CPLEX.

    A is stored sparse, by row and by column.  Each row carries one
    implicit slack, a_i x - s_i = b_i for [Ge] and a_i x + s_i = b_i
    otherwise, with s_i in [0, inf) ([0, 0] for [Eq]); there are no
    artificial columns.  The basis inverse is kept in product form (eta
    file) and refactored every 64 updates, after a row is dropped, or
    when a residual or Farkas check fails.  With finite column bounds the all-slack
    basis is dual feasible, so the first solve is the same dual simplex
    as every later one: there is no phase 1 and no primal simplex.  A
    one-off solve is [Incremental.reoptimize (Incremental.create p)]. *)

type rel =
  | Ge
  | Le
  | Eq

type row = {
  coeffs : (int * float) array;  (** column index, coefficient *)
  rel : rel;
  rhs : float;
}

type problem = {
  ncols : int;
  lower : float array;  (** length [ncols] *)
  upper : float array;  (** length [ncols] *)
  objective : float array;  (** length [ncols] *)
  rows : row array;
}

type solution = {
  value : float;  (** objective at the optimum *)
  x : float array;  (** primal values, length [ncols] *)
  row_activity : float array;  (** [a_i x] per row, length [m] *)
  duals : float array;
      (** row duals y = c_B B^-1 at the optimum, with the sign each
          relation needs: [>= 0] on a [Ge] row, [<= 0] on a [Le] row.
          [value] equals the Lagrangian bound
          y b + sum_j min over [lower_j, upper_j] of (c - y A)_j x_j. *)
}

type outcome =
  | Optimal of solution
  | Infeasible of (int * float) list
      (** rows with a non-zero entry in the violated row of B^-1 (a
          Farkas ray of the dual simplex), each paired with that
          multiplier, oriented like the duals: up to rounding, the
          combination sum w_i a_i x >= sum w_i b_i has no solution in the
          column box. *)
  | Iteration_limit of float option
      (** gave up; [Some z] is a safe dual (Lagrangian) lower bound on the
          optimum valid at the point the solver stopped *)

type stats = {
  mutable calls : int;  (** [Incremental.reoptimize] invocations *)
  mutable rebuilds : int;  (** calls that started from the all-slack basis *)
  mutable iterations : int;  (** dual simplex steps, the final optimality check included *)
  mutable pivots : int;  (** basis changes only *)
  mutable refreshes : int;  (** recomputations of all reduced costs from A *)
}

val stats : unit -> stats
(** Fresh all-zero record.  Pass the same record to successive
    [Incremental.reoptimize] calls to accumulate across them; the library
    itself stays free of global state. *)

(** Persistent LP state for sequences of re-solves that differ in column
    bounds and in appended or dropped rows — the B&B lower-bounding and
    cutting-plane workload.  Each {!reoptimize} rests every nonbasic column
    on the bound its reduced cost prefers (the pivots keep the reduced
    costs exact; a refactorization recomputes them from A) and runs the
    dual simplex from there.  No edit discards the basis. *)
module Incremental : sig
  type t

  type info = {
    warm : bool;  (** last call reused the previous basis *)
    iters : int;  (** simplex iterations spent by the last call *)
    rebuilt : bool;
        (** last call started from the all-slack basis: true only on a
            context's first [reoptimize] *)
  }

  val create : ?eps:float -> problem -> t
  (** Snapshot [problem] (bounds are copied); [eps] defaults to [1e-7].
      The first [reoptimize] starts from the all-slack basis.  Raises
      [Invalid_argument] when a column bound is infinite. *)

  val fix : t -> int -> float -> unit
  (** [fix t j v] pins column [j] to value [v] (both bounds). *)

  val unfix : t -> int -> unit
  (** Restore column [j]'s bounds from the base problem. *)

  val nrows : t -> int
  (** Current number of rows in the (edited) base problem. *)

  val add_row : t -> row -> int
  (** Append a row to the base problem, returning its row index.  The
      new row's slack enters the basis (one row eta on the factored
      inverse), so dual feasibility is unaffected by the zero-cost slack
      and any primal violation of the new row is repaired by the next
      dual simplex — exactly the cutting-plane workload. *)

  val drop_row : t -> int -> unit
  (** Remove row [i] from the base problem.  Indices of later rows shift
      down by one.  A nonbasic slack of row [i] first enters the basis;
      for an evicted cut row (dual about zero) this leaves every reduced
      cost as it was.  The basis stays warm; it is refactored on the next
      [reoptimize]. *)

  val reoptimize :
    ?max_iters:int -> ?should_stop:(unit -> bool) -> ?stats:stats -> t -> outcome
  (** Re-solve under the current bounds.  [Infeasible] witnesses index
      rows of the base problem.  Calls that hit the iteration limit
      report [Iteration_limit (Some z)] with the Lagrangian bound of the
      duals reached, valid under the current bounds.
      [max_iters] defaults to [200 + 20 * (m + ncols)].  When [stats] is
      given, the call's work figures are added to it on every exit path.

      [should_stop] is polled every 64 iterations; when it fires, the
      call exits through the {!Iteration_limit} path, so a cancelled
      solve still reports the safe truncated dual bound when one is
      available.  This is the cooperative-cancellation poll point for
      long LP solves (parallel portfolio stop flag, wall-clock
      deadlines). *)

  val last_info : t -> info
  (** Telemetry for the most recent [reoptimize] call. *)
end
