type rel =
  | Ge
  | Le
  | Eq

type row = {
  coeffs : (int * float) array;
  rel : rel;
  rhs : float;
}

type problem = {
  ncols : int;
  lower : float array;
  upper : float array;
  objective : float array;
  rows : row array;
}

type solution = {
  value : float;
  x : float array;
  row_activity : float array;
  duals : float array;
}

type outcome =
  | Optimal of solution
  | Infeasible of (int * float) list
  | Iteration_limit of float option

type stats = {
  mutable calls : int;
  mutable rebuilds : int;
  mutable iterations : int;
  mutable pivots : int;
  mutable refreshes : int;
}

let stats () = { calls = 0; rebuilds = 0; iterations = 0; pivots = 0; refreshes = 0 }

(* Cooperative stop: [should_stop] is consulted every 64 iterations and
   exits through the [Iteration_limit] path, so callers inherit the same
   truncated-bound soundness treatment as a genuine iteration cap. *)
let stop_poll_mask = 63

let default_max_iters ~m ~n = 200 + (20 * (m + n))
let never_stop () = false

(* Basis refactorization period, in eta updates. *)
let refactor_period = 64

(* The basis inverse in product form: B^-1 = E_k ... E_1 D, where D is
   the slack-sign diagonal of the rows present at the last
   refactorization.  A column eta records an entering column a (already
   transformed by the earlier factors) pivoting at position [p]; a row
   eta records a row appended with its slack basic, whose new component
   is (v_t - sum c_p y_p) / sigma over the positions [idx] holding
   structural columns of that row. *)
type eta =
  | Col of {
      p : int;
      idx : int array;
      v : float array;
      piv : float;
    }
  | Row of {
      t : int;
      idx : int array;
      v : float array;
      sigma : float;
    }

(* Sum duplicate column indices of a row. *)
let merge_row (r : row) =
  let sorted = Array.copy r.coeffs in
  Array.sort (fun (a, _) (b, _) -> compare a b) sorted;
  let acc = ref [] in
  Array.iter
    (fun (j, a) ->
      match !acc with
      | (j', a') :: rest when j' = j -> acc := (j, a' +. a) :: rest
      | l -> acc := (j, a) :: l)
    sorted;
  let l = Array.of_list (List.rev !acc) in
  Array.map fst l, Array.map snd l

let slack_sign = function Ge -> -1. | Le | Eq -> 1.

let array_remove a i =
  Array.init (Array.length a - 1) (fun k -> if k < i then a.(k) else a.(k + 1))

module Incremental = struct
  type info = {
    warm : bool;
    iters : int;
    rebuilt : bool;
  }

  (* Variables are the [n] structural columns followed by one slack per
     row: row i reads a_i x + sgn_i s_i = rhs_i with s_i in [0, inf)
     ([0, 0] for [Eq]), sgn_i = -1 for [Ge] and +1 otherwise.  The row
     duals y = c_B B^-1 are those of the rows as given. *)
  type t = {
    n : int;
    eps : float;
    base_lower : float array;
    base_upper : float array;
    cost : float array;
    mutable m : int;
    mutable ridx : int array array;  (* row-wise A, duplicates merged *)
    mutable rval : float array array;
    mutable rhs : float array;
    mutable sgn : float array;
    mutable cidx : int array array;  (* column-wise copy, rebuilt lazily *)
    mutable cval : float array array;
    mutable cols_ok : bool;
    mutable lo : float array;  (* current bounds, all n + m variables *)
    mutable hi : float array;
    mutable x : float array;
    mutable d : float array;  (* reduced costs *)
    mutable basis : int array;  (* variable at each basis position *)
    mutable pos : int array;  (* basis position of each variable, or -1 *)
    mutable diag : float array;
    mutable etas : eta array;
    mutable neta : int;
    mutable neta0 : int;  (* etas written by the last refactorization *)
    mutable stale : bool;  (* factorization must be rebuilt before use *)
    mutable drift : bool;  (* a nonbasic reduced cost has the wrong sign *)
    mutable started : bool;
    mutable info : info;
    mutable npivots : int;
    mutable nrefresh : int;
  }

  let nrows t = t.m
  let last_info t = t.info
  let cost_of t k = if k < t.n then t.cost.(k) else 0.

  let create ?(eps = 1e-7) (p : problem) =
    let n = p.ncols in
    for j = 0 to n - 1 do
      if not (Float.is_finite p.lower.(j) && Float.is_finite p.upper.(j)) then
        invalid_arg "Simplex: structural columns need finite bounds"
    done;
    let m = Array.length p.rows in
    let merged = Array.map merge_row p.rows in
    let sgn = Array.map (fun (r : row) -> slack_sign r.rel) p.rows in
    let lo = Array.make (n + m) 0. in
    let hi = Array.make (n + m) infinity in
    Array.blit p.lower 0 lo 0 n;
    Array.blit p.upper 0 hi 0 n;
    Array.iteri (fun i (r : row) -> if r.rel = Eq then hi.(n + i) <- 0.) p.rows;
    {
      n;
      eps;
      base_lower = Array.sub p.lower 0 n;
      base_upper = Array.sub p.upper 0 n;
      cost = Array.sub p.objective 0 n;
      m;
      ridx = Array.map fst merged;
      rval = Array.map snd merged;
      rhs = Array.map (fun (r : row) -> r.rhs) p.rows;
      sgn;
      cidx = [||];
      cval = [||];
      cols_ok = false;
      lo;
      hi;
      x = Array.copy lo;
      d = Array.make (n + m) 0.;
      basis = Array.init m (fun i -> n + i);
      pos = Array.init (n + m) (fun k -> if k < n then -1 else k - n);
      diag = [||];
      etas = [||];
      neta = 0;
      neta0 = 0;
      stale = true;
      drift = false;
      started = false;
      info = { warm = false; iters = 0; rebuilt = false };
      npivots = 0;
      nrefresh = 0;
    }

  let ensure_cols t =
    if not t.cols_ok then begin
      let cnt = Array.make t.n 0 in
      Array.iter (Array.iter (fun j -> cnt.(j) <- cnt.(j) + 1)) t.ridx;
      t.cidx <- Array.map (fun c -> Array.make c 0) cnt;
      t.cval <- Array.map (fun c -> Array.make c 0.) cnt;
      Array.fill cnt 0 t.n 0;
      for i = 0 to t.m - 1 do
        Array.iteri
          (fun k j ->
            t.cidx.(j).(cnt.(j)) <- i;
            t.cval.(j).(cnt.(j)) <- t.rval.(i).(k);
            cnt.(j) <- cnt.(j) + 1)
          t.ridx.(i)
      done;
      t.cols_ok <- true
    end

  let push_eta t e =
    if t.neta = Array.length t.etas then begin
      let etas = Array.make (max 16 (2 * t.neta)) e in
      Array.blit t.etas 0 etas 0 t.neta;
      t.etas <- etas
    end;
    t.etas.(t.neta) <- e;
    t.neta <- t.neta + 1

  (* y <- B^-1 y (row space in, basis positions out). *)
  let ftran t y =
    for i = 0 to Array.length t.diag - 1 do
      y.(i) <- y.(i) *. t.diag.(i)
    done;
    for e = 0 to t.neta - 1 do
      match t.etas.(e) with
      | Col { p; idx; v; piv } ->
        if y.(p) <> 0. then begin
          let yp = y.(p) /. piv in
          y.(p) <- yp;
          for k = 0 to Array.length idx - 1 do
            y.(idx.(k)) <- y.(idx.(k)) -. (v.(k) *. yp)
          done
        end
      | Row { t = r; idx; v; sigma } ->
        let s = ref y.(r) in
        for k = 0 to Array.length idx - 1 do
          s := !s -. (v.(k) *. y.(idx.(k)))
        done;
        y.(r) <- !s /. sigma
    done

  (* z <- z B^-1 (basis positions in, row space out). *)
  let btran t z =
    for e = t.neta - 1 downto 0 do
      match t.etas.(e) with
      | Col { p; idx; v; piv } ->
        let s = ref z.(p) in
        for k = 0 to Array.length idx - 1 do
          s := !s -. (v.(k) *. z.(idx.(k)))
        done;
        z.(p) <- !s /. piv
      | Row { t = r; idx; v; sigma } ->
        let zr = z.(r) /. sigma in
        z.(r) <- zr;
        if zr <> 0. then
          for k = 0 to Array.length idx - 1 do
            z.(idx.(k)) <- z.(idx.(k)) -. (v.(k) *. zr)
          done
    done;
    for i = 0 to Array.length t.diag - 1 do
      z.(i) <- z.(i) *. t.diag.(i)
    done

  (* Dense column of variable [k] in row space. *)
  let load_column t k y =
    Array.fill y 0 t.m 0.;
    if k < t.n then begin
      let idx = t.cidx.(k) and v = t.cval.(k) in
      for c = 0 to Array.length idx - 1 do
        y.(idx.(c)) <- v.(c)
      done
    end
    else y.(k - t.n) <- t.sgn.(k - t.n)

  (* a_i x for row [i]. *)
  let row_dot t i x =
    let idx = t.ridx.(i) and v = t.rval.(i) in
    let s = ref 0. in
    for c = 0 to Array.length idx - 1 do
      s := !s +. (v.(c) *. x.(idx.(c)))
    done;
    !s

  let col_eta y p =
    let keep i = i <> p && abs_float y.(i) > 1e-13 in
    let nnz = ref 0 in
    for i = 0 to Array.length y - 1 do
      if keep i then incr nnz
    done;
    let idx = Array.make !nnz 0 and v = Array.make !nnz 0. in
    let k = ref 0 in
    for i = 0 to Array.length y - 1 do
      if keep i then begin
        idx.(!k) <- i;
        v.(!k) <- y.(i);
        incr k
      end
    done;
    Col { p; idx; v; piv = y.(p) }

  (* Product-form reinversion of the current basic set: slacks keep
     their own row's position, structural columns (sparsest first) take
     the free position with the largest transformed entry.  A column
     without a usable pivot leaves the basis and the free position's
     slack enters instead. *)
  let refactor t =
    ensure_cols t;
    t.diag <- Array.copy t.sgn;
    t.neta <- 0;
    let free = Array.init t.m (fun i -> t.pos.(t.n + i) < 0) in
    let structs = List.filter (fun j -> t.pos.(j) >= 0) (List.init t.n Fun.id) in
    let structs =
      List.stable_sort
        (fun a b -> compare (Array.length t.cidx.(a)) (Array.length t.cidx.(b)))
        structs
    in
    let basis = Array.init t.m (fun i -> t.n + i) in
    let y = Array.make t.m 0. in
    List.iter
      (fun q ->
        load_column t q y;
        ftran t y;
        let p = ref (-1) in
        Array.iteri
          (fun i f -> if f && (!p < 0 || abs_float y.(i) > abs_float y.(!p)) then p := i)
          free;
        if !p >= 0 && abs_float y.(!p) > 1e-9 then begin
          push_eta t (col_eta y !p);
          free.(!p) <- false;
          basis.(!p) <- q
        end)
      structs;
    Array.fill t.pos 0 (t.n + t.m) (-1);
    Array.iteri (fun p k -> t.pos.(k) <- p) basis;
    t.basis <- basis;
    t.neta0 <- t.neta;
    t.stale <- false

  (* y = c_B B^-1, the row duals of the current basis. *)
  let duals t =
    let y = Array.init t.m (fun p -> cost_of t t.basis.(p)) in
    btran t y;
    y

  (* d = c - y A over all variables, from the stored rows. *)
  let reduced_costs t y =
    Array.blit t.cost 0 t.d 0 t.n;
    for i = 0 to t.m - 1 do
      let yi = y.(i) in
      if yi <> 0. then begin
        let idx = t.ridx.(i) and v = t.rval.(i) in
        for k = 0 to Array.length idx - 1 do
          t.d.(idx.(k)) <- t.d.(idx.(k)) -. (yi *. v.(k))
        done
      end;
      t.d.(t.n + i) <- -.yi *. t.sgn.(i)
    done;
    t.nrefresh <- t.nrefresh + 1

  (* Largest value slack [k] can take with every structural column in
     its box; resting point for a slack whose reduced cost asks for its
     (infinite) upper bound. *)
  let implied_upper t k =
    let i = k - t.n in
    let idx = t.ridx.(i) and v = t.rval.(i) and s = -.t.sgn.(i) in
    let u = ref (t.sgn.(i) *. t.rhs.(i)) in
    for c = 0 to Array.length idx - 1 do
      let a = s *. v.(c) and j = idx.(c) in
      u := !u +. Float.max (a *. t.lo.(j)) (a *. t.hi.(j))
    done;
    Float.max !u 0.

  (* Basic values x_B = B^-1 (b - N x_N). *)
  let basic_values t =
    let r = Array.copy t.rhs in
    for i = 0 to t.m - 1 do
      let idx = t.ridx.(i) and v = t.rval.(i) in
      for k = 0 to Array.length idx - 1 do
        let j = idx.(k) in
        if t.pos.(j) < 0 then r.(i) <- r.(i) -. (v.(k) *. t.x.(j))
      done;
      if t.pos.(t.n + i) < 0 then r.(i) <- r.(i) -. (t.sgn.(i) *. t.x.(t.n + i))
    done;
    ftran t r;
    for p = 0 to t.m - 1 do
      t.x.(t.basis.(p)) <- r.(p)
    done

  (* The bound nonbasic variable [k] rests on under its reduced cost. *)
  let resting t k =
    let l = t.lo.(k) and h = t.hi.(k) and r = t.d.(k) in
    if l = h || r > t.eps then l
    else if r < -.t.eps then if h < infinity then h else implied_upper t k
    else if h < infinity && abs_float (t.x.(k) -. h) <= t.eps then h
    else l

  let reposition t =
    for k = 0 to t.n + t.m - 1 do
      if t.pos.(k) < 0 then t.x.(k) <- resting t k
    done;
    t.drift <- false;
    basic_values t

  (* Dual-feasible resting point for the current basis and bounds:
     reduced costs from A, every nonbasic variable on the bound its
     reduced cost prefers, basic values recomputed.  Every variable is
     boxed (slacks by their implied upper bound), so this always
     succeeds. *)
  let restore t =
    reduced_costs t (duals t);
    Array.iter (fun k -> t.d.(k) <- 0.) t.basis;
    reposition t

  let refresh t =
    refactor t;
    restore t

  (* max_i |a_i x + sgn_i s_i - rhs_i| / (1 + |rhs_i|) *)
  let residual t =
    let worst = ref 0. in
    for i = 0 to t.m - 1 do
      let s = row_dot t i t.x +. (t.sgn.(i) *. t.x.(t.n + i)) in
      worst := Float.max !worst (abs_float (s -. t.rhs.(i)) /. (1. +. abs_float t.rhs.(i)))
    done;
    !worst

  (* Does rho prove infeasibility over the variable boxes?  rho (A x +
     S s) = rho b must be unreachable. *)
  let proves_infeasible t rho =
    let lo = ref 0. and hi = ref 0. and rb = ref 0. in
    let add a k =
      if a > 0. then begin
        lo := !lo +. (a *. t.lo.(k));
        hi := !hi +. (a *. t.hi.(k))
      end
      else if a < 0. then begin
        lo := !lo +. (a *. t.hi.(k));
        hi := !hi +. (a *. t.lo.(k))
      end
    in
    let arow = Array.make t.n 0. in
    Array.iteri
      (fun i ri ->
        if ri <> 0. then begin
          rb := !rb +. (ri *. t.rhs.(i));
          Array.iteri (fun c j -> arow.(j) <- arow.(j) +. (ri *. t.rval.(i).(c))) t.ridx.(i);
          add (ri *. t.sgn.(i)) (t.n + i)
        end)
      rho;
    Array.iteri (fun j a -> add a j) arow;
    !rb < !lo || !rb > !hi

  (* Row multipliers as certificates (duals, or a Farkas ray oriented
     like them): a [Ge] row needs a nonnegative multiplier, a [Le] row a
     nonpositive one.  A wrong sign beyond rounding can only come from a
     slack resting at its implied upper bound, which puts its row at
     maximal activity over the column box.  Zeroing such a multiplier
     keeps the certificate valid, because that bound is a sum of
     column-bound facts: min (d + y_i a_i) x >= min d x + y_i max a_i x. *)
  let certificate t v =
    Array.iteri
      (fun i vi -> if vi *. t.sgn.(i) > 0. && t.hi.(t.n + i) = infinity then v.(i) <- 0.)
      v;
    v

  (* Lagrangian bound of the current duals: z(y) = y b + sum_k min over
     [lo_k, hi_k] of d_k x_k, valid for ANY y.  The min term is
     evaluated with NO tolerance, so even a basic variable's rounding
     residue in d contributes its exact (downward-safe) term; a slack's
     infinite upper bound is replaced by its implied one, which every
     feasible point satisfies. *)
  let safe_dual_bound t =
    let y = duals t in
    reduced_costs t y;
    let z = ref 0. in
    Array.iteri (fun i yi -> z := !z +. (yi *. t.rhs.(i))) y;
    for k = 0 to t.n + t.m - 1 do
      let r = t.d.(k) in
      if r > 0. then z := !z +. (r *. t.lo.(k))
      else if r < 0. then
        z := !z +. (r *. if t.hi.(k) < infinity then t.hi.(k) else implied_upper t k)
    done;
    if Float.is_finite !z then Some !z else None

  type move =
    | Moved
    | Opt
    | Refactor  (* pivot element disagrees with its column: drift *)
    | No_entering of float array  (* violated row of B^-1 with no entering *)

  (* One dual simplex step.  Leaving: the basic variable with the
     largest bound violation.  Entering: among nonbasic columns whose
     move can repair it, the smallest dual ratio |d_j / alpha_rj|, ties
     to the larger |alpha_rj|.  The pivot row comes from a BTRAN and the
     rows of A, the entering column from an FTRAN. *)
  let dual_step t arow col =
    let n = t.n and m = t.m in
    let r = ref (-1) and viol = ref t.eps and below = ref false in
    for p = 0 to m - 1 do
      let k = t.basis.(p) in
      let v = t.x.(k) in
      if v < t.lo.(k) -. !viol then begin
        r := p;
        viol := t.lo.(k) -. v;
        below := true
      end
      else if v > t.hi.(k) +. !viol then begin
        r := p;
        viol := v -. t.hi.(k);
        below := false
      end
    done;
    if !r < 0 then Opt
    else begin
      let r = !r and below = !below in
      let rho = Array.make m 0. in
      rho.(r) <- 1.;
      btran t rho;
      Array.fill arow 0 (n + m) 0.;
      for i = 0 to m - 1 do
        let ri = rho.(i) in
        if ri <> 0. then begin
          let idx = t.ridx.(i) and v = t.rval.(i) in
          for c = 0 to Array.length idx - 1 do
            arow.(idx.(c)) <- arow.(idx.(c)) +. (ri *. v.(c))
          done;
          arow.(n + i) <- ri *. t.sgn.(i)
        end
      done;
      let best = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0. in
      for j = 0 to n + m - 1 do
        let a = arow.(j) in
        if t.pos.(j) < 0 && abs_float a > t.eps && t.lo.(j) < t.hi.(j) then begin
          let at_lower = t.x.(j) <= t.lo.(j) +. t.eps in
          if (below = at_lower) = (a < 0.) then begin
            let ratio = abs_float (t.d.(j) /. a) in
            if
              ratio < !best_ratio -. t.eps
              || (ratio < !best_ratio +. t.eps && abs_float a > abs_float !best_alpha)
            then begin
              best := j;
              best_ratio := ratio;
              best_alpha := a
            end
          end
        end
      done;
      if !best < 0 then begin
        (* orient the ray like the duals: a basic variable below its
           bound asks for -rho *)
        if below then Array.iteri (fun i v -> rho.(i) <- -.v) rho;
        No_entering rho
      end
      else begin
        let q = !best and a = !best_alpha in
        load_column t q col;
        ftran t col;
        if t.neta > t.neta0 && abs_float (col.(r) -. a) > 1e-7 *. (1. +. abs_float a) then Refactor
        else begin
          let k = t.basis.(r) in
          let target = if below then t.lo.(k) else t.hi.(k) in
          let theta = (t.x.(k) -. target) /. col.(r) in
          for p = 0 to m - 1 do
            let b = t.basis.(p) in
            t.x.(b) <- t.x.(b) -. (col.(p) *. theta)
          done;
          t.x.(q) <- t.x.(q) +. theta;
          t.x.(k) <- target;
          let theta_d = t.d.(q) /. a in
          for j = 0 to n + m - 1 do
            if arow.(j) <> 0. && t.pos.(j) < 0 then begin
              let dj = t.d.(j) -. (theta_d *. arow.(j)) in
              t.d.(j) <- dj;
              (* a skipped tiny entry can push a reduced cost past zero *)
              if abs_float dj > t.eps && t.lo.(j) < t.hi.(j) && j <> q
                 && dj > 0. <> (t.x.(j) <= t.lo.(j) +. t.eps)
              then t.drift <- true
            end
          done;
          t.d.(q) <- 0.;
          t.d.(k) <- -.theta_d;
          push_eta t (col_eta col r);
          t.basis.(r) <- q;
          t.pos.(q) <- r;
          t.pos.(k) <- -1;
          t.npivots <- t.npivots + 1;
          Moved
        end
      end
    end

  (* Dual simplex from the restored point.  A residual check at the
     optimum and a certificate check at infeasibility guard against
     drift in the eta file: on failure the basis is refactored once and
     the iteration resumes.  An optimum reached after a reduced cost
     crossed zero resumes from a restored point. *)
  let dual_simplex t ~max_iters ~iters ~should_stop =
    let arow = Array.make (t.n + t.m) 0. and col = Array.make t.m 0. in
    let checked = ref false in
    let recheck () =
      let again = (not !checked) && t.neta > t.neta0 in
      if again then begin
        checked := true;
        refresh t
      end;
      again
    in
    let rec go () =
      if !iters >= max_iters || (!iters land stop_poll_mask = stop_poll_mask && should_stop ())
      then `Limit
      else begin
        incr iters;
        match dual_step t arow col with
        | Moved ->
          if t.neta - t.neta0 >= refactor_period then refresh t;
          go ()
        | Refactor ->
          refresh t;
          go ()
        | Opt ->
          if residual t > 1e-9 && recheck () then go ()
          else if t.drift then begin
            restore t;
            go ()
          end
          else `Opt
        | No_entering rho ->
          let ray = certificate t rho in
          if (not (proves_infeasible t ray)) && recheck () then go () else `Infeasible ray
      end
    in
    go ()

  let extract t =
    let x = Array.init t.n (fun j -> Float.min t.hi.(j) (Float.max t.lo.(j) t.x.(j))) in
    let activity = Array.init t.m (fun i -> row_dot t i x) in
    let value = ref 0. in
    for j = 0 to t.n - 1 do
      value := !value +. (t.cost.(j) *. x.(j))
    done;
    Optimal { value = !value; x; row_activity = activity; duals = certificate t (duals t) }

  (* Append a row with its slack basic.  The old rows' duals, hence all
     reduced costs, are unchanged, so the basis stays dual feasible; a
     violated new row is repaired by the next dual simplex. *)
  let add_row t (r : row) =
    let i = t.m and s = t.n + t.m in
    let idx, v = merge_row r in
    let sg = slack_sign r.rel in
    let grow a x = Array.append a [| x |] in
    t.ridx <- grow t.ridx idx;
    t.rval <- grow t.rval v;
    t.rhs <- grow t.rhs r.rhs;
    t.sgn <- grow t.sgn sg;
    t.lo <- grow t.lo 0.;
    t.hi <- grow t.hi (if r.rel = Eq then 0. else infinity);
    t.d <- grow t.d 0.;
    t.pos <- grow t.pos i;
    t.basis <- grow t.basis s;
    t.m <- t.m + 1;
    t.cols_ok <- false;
    t.x <- grow t.x (sg *. (r.rhs -. row_dot t i t.x));
    if t.started && not t.stale then begin
      let ps = ref [] and cs = ref [] in
      Array.iteri
        (fun c j ->
          if t.pos.(j) >= 0 then begin
            ps := t.pos.(j) :: !ps;
            cs := v.(c) :: !cs
          end)
        idx;
      push_eta t (Row { t = i; idx = Array.of_list !ps; v = Array.of_list !cs; sigma = sg })
    end;
    i

  (* Remove row [i] once its slack is basic: with that slack basic the
     basis, less the row and the slack, stays nonsingular.  A nonbasic
     slack first takes over the basis position with the largest entry
     of its transformed column; an evicted row's dual is about zero, so
     this swap leaves the reduced costs (and dual feasibility) as they
     were.  The factorization is rebuilt on the next solve. *)
  let drop_row t i =
    if i < 0 || i >= t.m then invalid_arg "Simplex.Incremental.drop_row";
    let s = t.n + i in
    if t.pos.(s) < 0 then begin
      if t.stale then refactor t;
      let y = Array.make t.m 0. in
      load_column t s y;
      ftran t y;
      let r = ref 0 in
      Array.iteri (fun p f -> if abs_float f > abs_float y.(!r) then r := p) y;
      t.pos.(t.basis.(!r)) <- -1;
      t.basis.(!r) <- s;
      t.pos.(s) <- !r
    end;
    t.ridx <- array_remove t.ridx i;
    t.rval <- array_remove t.rval i;
    t.rhs <- array_remove t.rhs i;
    t.sgn <- array_remove t.sgn i;
    t.lo <- array_remove t.lo s;
    t.hi <- array_remove t.hi s;
    t.x <- array_remove t.x s;
    t.d <- array_remove t.d s;
    t.m <- t.m - 1;
    let basic = List.filter (fun k -> k <> s) (Array.to_list t.basis) in
    t.basis <- Array.of_list (List.map (fun k -> if k > s then k - 1 else k) basic);
    t.pos <- Array.make (t.n + t.m) (-1);
    Array.iteri (fun p k -> t.pos.(k) <- p) t.basis;
    t.cols_ok <- false;
    t.stale <- true

  let fix t j v =
    t.lo.(j) <- v;
    t.hi.(j) <- v

  let unfix t j =
    t.lo.(j) <- t.base_lower.(j);
    t.hi.(j) <- t.base_upper.(j)

  let reoptimize ?max_iters ?(should_stop = never_stop) ?stats t =
    let max_iters =
      match max_iters with Some k -> k | None -> default_max_iters ~m:t.m ~n:t.n
    in
    let warm = t.started in
    t.started <- true;
    let iters = ref 0 and pivots0 = t.npivots and refresh0 = t.nrefresh in
    ensure_cols t;
    (* reduced costs are kept exact by the pivots and stay valid across
       bound edits and row additions, so a warm call only repositions *)
    if t.stale || t.neta - t.neta0 >= refactor_period then refresh t else reposition t;
    let outcome =
      match dual_simplex t ~max_iters ~iters ~should_stop with
      | `Opt -> extract t
      | `Infeasible rho ->
        let w = ref [] in
        for i = t.m - 1 downto 0 do
          if abs_float rho.(i) > t.eps then w := (i, rho.(i)) :: !w
        done;
        Infeasible !w
      | `Limit -> Iteration_limit (safe_dual_bound t)
    in
    t.info <- { warm; iters = !iters; rebuilt = not warm };
    (match stats with
    | None -> ()
    | Some s ->
      s.calls <- s.calls + 1;
      if not warm then s.rebuilds <- s.rebuilds + 1;
      s.iterations <- s.iterations + !iters;
      s.pivots <- s.pivots + (t.npivots - pivots0);
      s.refreshes <- s.refreshes + (t.nrefresh - refresh0));
    outcome
end
