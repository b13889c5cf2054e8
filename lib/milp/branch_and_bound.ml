open Pbo

type node = {
  bound : float;  (* parent LP bound: lower bound on any completion *)
  depth : int;
  fixings : (Lit.var * bool) list;
}

(* Minimal binary min-heap on node bounds (deeper first on ties, to dive
   toward incumbents). *)
module Heap = struct
  type t = {
    mutable data : node array;
    mutable size : int;
  }

  let dummy = { bound = 0.; depth = 0; fixings = [] }
  let create () = { data = Array.make 64 dummy; size = 0 }
  let is_empty h = h.size = 0

  let before a b = a.bound < b.bound || (a.bound = b.bound && a.depth > b.depth)

  let push h n =
    if h.size = Array.length h.data then begin
      let data = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- n;
    h.size <- h.size + 1;
    let rec up i =
      let p = (i - 1) / 2 in
      if i > 0 && before h.data.(i) h.data.(p) then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(p);
        h.data.(p) <- tmp;
        up p
      end
    in
    up (h.size - 1)

  let pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let best = ref i in
      if l < h.size && before h.data.(l) h.data.(!best) then best := l;
      if r < h.size && before h.data.(r) h.data.(!best) then best := r;
      if !best <> i then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(!best);
        h.data.(!best) <- tmp;
        down !best
      end
    in
    down 0;
    top
end

(* The problem in signed x-variable form. *)
type relaxation = {
  nvars : int;
  obj : float array;
  obj_offset : float;
  rows : Simplex.row array;
}

let relaxation_of problem =
  let nvars = Problem.nvars problem in
  let obj = Array.make (max nvars 1) 0. in
  let obj_offset = ref 0. in
  (match Problem.objective problem with
  | None -> ()
  | Some o ->
    obj_offset := float_of_int o.offset;
    let add (ct : Problem.cost_term) =
      let v = Lit.var ct.lit in
      if Lit.is_pos ct.lit then obj.(v) <- obj.(v) +. float_of_int ct.cost
      else begin
        obj.(v) <- obj.(v) -. float_of_int ct.cost;
        obj_offset := !obj_offset +. float_of_int ct.cost
      end
    in
    Array.iter add o.cost_terms);
  let row_of c =
    let rhs = ref (float_of_int (Constr.degree c)) in
    let term { Constr.coeff; lit } =
      let v = Lit.var lit in
      if Lit.is_pos lit then v, float_of_int coeff
      else begin
        rhs := !rhs -. float_of_int coeff;
        v, -.float_of_int coeff
      end
    in
    let coeffs = Array.map term (Constr.terms c) in
    { Simplex.coeffs; rel = Simplex.Ge; rhs = !rhs }
  in
  let rows = Array.map row_of (Problem.constraints problem) in
  { nvars; obj; obj_offset = !obj_offset; rows }

let root_lp relax =
  let n = max relax.nvars 1 in
  {
    Simplex.ncols = relax.nvars;
    lower = Array.make n 0.;
    upper = Array.make n 1.;
    objective = relax.obj;
    rows = relax.rows;
  }

(* [pushed.(v)] is the fixing currently applied to column [v]. *)
let most_fractional x pushed nvars =
  let best = ref None in
  for v = 0 to nvars - 1 do
    if pushed.(v) = None then begin
      let frac = abs_float (x.(v) -. 0.5) in
      match !best with
      | Some (f, _) when f <= frac -> ()
      | Some _ | None -> if x.(v) > 1e-6 && x.(v) < 1. -. 1e-6 then best := Some (frac, v)
    end
  done;
  !best

let first_unfixed pushed nvars =
  let rec go v = if v >= nvars then None else if pushed.(v) <> None then go (v + 1) else Some v in
  go 0

let model_of_rounding x pushed nvars =
  Model.of_array
    (Array.init nvars (fun v -> match pushed.(v) with Some b -> b | None -> x.(v) >= 0.5))

let flush_simplex reg (s : Simplex.stats) =
  let add name n =
    if n <> 0 then Telemetry.Counter.add (Telemetry.Registry.counter reg name) n
  in
  add "simplex.calls" s.calls;
  add "simplex.rebuilds" s.rebuilds;
  add "simplex.iterations" s.iterations;
  add "simplex.pivots" s.pivots;
  add "simplex.refreshes" s.refreshes

let solve ?(options = Bsolo.Options.default) problem =
  let start = Unix.gettimeofday () in
  let deadline = Option.map (fun l -> start +. l) options.time_limit in
  let tel =
    match options.telemetry with Some t -> t | None -> Telemetry.Ctx.silent ()
  in
  let nodes_c = Telemetry.Registry.counter tel.registry "search.nodes" in
  let lp_calls_c = Telemetry.Registry.counter tel.registry "search.lb_calls" in
  let decisions_c = Telemetry.Registry.counter tel.registry "engine.decisions" in
  let recorder = tel.Telemetry.Ctx.recorder in
  let relax = relaxation_of problem in
  (* One LP for the whole tree: each node's fixings are applied as
     column-bound edits against [pushed], the per-variable mirror of the
     fixings last applied, and the dual simplex re-solves from the
     previous node's basis. *)
  let sx = Simplex.Incremental.create (root_lp relax) in
  let pushed = Array.make relax.nvars None in
  let wanted = Array.make relax.nvars None in
  let apply_fixings fixings =
    List.iter (fun (v, b) -> wanted.(v) <- Some b) fixings;
    for v = 0 to relax.nvars - 1 do
      if wanted.(v) <> pushed.(v) then begin
        (match wanted.(v) with
        | Some b -> Simplex.Incremental.fix sx v (if b then 1. else 0.)
        | None -> Simplex.Incremental.unfix sx v);
        pushed.(v) <- wanted.(v)
      end;
      wanted.(v) <- None
    done
  in
  let heap = Heap.create () in
  let best = ref None in
  let upper = ref max_int in
  let imported = ref false in
  let nodes = ref 0 in
  let imports_c = Telemetry.Registry.counter tel.registry "search.incumbent_imports" in
  let try_incumbent m =
    if Model.satisfies problem m then begin
      let c = Model.cost problem m in
      if c < !upper then begin
        upper := c;
        best := Some (m, c);
        Telemetry.Recorder.incumbent recorder ~cost:c;
        Telemetry.Profile.Cell.update_ub ~self:true tel.Telemetry.Ctx.cell (float_of_int c);
        match options.on_incumbent with Some broadcast -> broadcast m c | None -> ()
      end
    end
  in
  (* Shared-incumbent import (parallel portfolio): milp costs already
     include the objective offset, so an external cost compares directly
     against [upper] and tightens the best-bound pruning test. *)
  let poll_external () =
    match options.external_incumbent with
    | None -> ()
    | Some hook ->
      (match hook () with
      | Some (ext, member) when ext < !upper ->
        upper := ext;
        imported := true;
        Telemetry.Counter.incr imports_c;
        Telemetry.Profile.Cell.update_ub ~self:false tel.Telemetry.Ctx.cell (float_of_int ext);
        Telemetry.Recorder.import recorder ~cost:ext ~member
      | Some _ | None -> ())
  in
  let out_of_budget () =
    (match options.should_stop with Some stop -> stop () | None -> false)
    || (match options.node_limit with Some l -> !nodes >= l | None -> false)
    || (match deadline with Some d -> Unix.gettimeofday () > d | None -> false)
  in
  (* Poll point inside the per-node LP: a stop request or an expired
     deadline truncates the solve (sound — the node is just re-expanded
     as pruned/budget), so one long LP cannot overrun the budget. *)
  let lp_should_stop () =
    (match options.should_stop with Some stop -> stop () | None -> false)
    || (match deadline with Some d -> Unix.gettimeofday () > d | None -> false)
  in
  Heap.push heap { bound = neg_infinity; depth = 0; fixings = [] };
  let verdict = ref None in
  if Problem.trivially_unsat problem then verdict := Some `Exhausted;
  while !verdict = None do
    if Heap.is_empty heap then verdict := Some `Exhausted
    else if out_of_budget () then verdict := Some `Budget
    else begin
      let node = Heap.pop heap in
      incr nodes;
      poll_external ();
      Telemetry.Counter.incr nodes_c;
      Telemetry.Profile.Cell.bump_nodes tel.Telemetry.Ctx.cell;
      (* Best-first: the popped node's bound is the global lower bound. *)
      if Float.is_finite node.bound then
        Telemetry.Profile.Cell.update_lb tel.Telemetry.Ctx.cell node.bound;
      Telemetry.Counter.incr decisions_c;
      Telemetry.Progress.tick tel.progress ~count:!nodes ~render:(fun () ->
          Printf.sprintf "nodes=%d open=%d ub=%s" !nodes heap.Heap.size
            (match !best with None -> "-" | Some (_, c) -> string_of_int c));
      if !upper < max_int && int_of_float (ceil (node.bound -. 1e-6)) >= !upper then ()
      else begin
        Telemetry.Counter.incr lp_calls_c;
        apply_fixings node.fixings;
        let sstats = Simplex.stats () in
        let t0 = Unix.gettimeofday () in
        let lp_outcome =
          Telemetry.Ctx.with_phase tel Telemetry.Phase.Simplex (fun () ->
              Simplex.Incremental.reoptimize ~should_stop:lp_should_stop ~stats:sstats sx)
        in
        let lp_elapsed_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        flush_simplex tel.registry sstats;
        (* One Lb_eval frame per LP relaxation solve: proc "lp", the
           rounded-up bound as the value (path cost is folded into the
           relaxation, so path = 0), pruned when the node closes. *)
        let record_lp ~value ~pruned =
          Telemetry.Recorder.lb_eval recorder ~proc:"lp" ~value ~path:0 ~upper:!upper
            ~elapsed_us:lp_elapsed_us ~pruned
        in
        match lp_outcome with
        | Simplex.Infeasible _ -> record_lp ~value:!upper ~pruned:true
        | Simplex.Optimal sol ->
          let bound_int = int_of_float (ceil (sol.value +. relax.obj_offset -. 1e-6)) in
          let pruned = !upper < max_int && bound_int >= !upper in
          record_lp ~value:bound_int ~pruned;
          if pruned then ()
          else begin
            try_incumbent (model_of_rounding sol.x pushed relax.nvars);
            match most_fractional sol.x pushed relax.nvars with
            | None ->
              (* LP solution is integral; the rounding above recorded it *)
              ()
            | Some (_, v) ->
              let child b =
                {
                  bound = sol.value +. relax.obj_offset;
                  depth = node.depth + 1;
                  fixings = (v, b) :: node.fixings;
                }
              in
              Heap.push heap (child (sol.x.(v) >= 0.5));
              Heap.push heap (child (sol.x.(v) < 0.5))
          end
        | Simplex.Iteration_limit _ ->
          record_lp ~value:0 ~pruned:false;
          (* cannot prune: branch blindly on the first unfixed variable *)
          (match first_unfixed pushed relax.nvars with
          | None -> ()
          | Some v ->
            let child b = { bound = node.bound; depth = node.depth + 1; fixings = (v, b) :: node.fixings } in
            Heap.push heap (child true);
            Heap.push heap (child false))
      end
    end
  done;
  let satisfaction = Problem.is_satisfaction problem in
  let status, proved_lb =
    match !verdict, !best with
    | Some `Exhausted, Some _ when satisfaction -> Bsolo.Outcome.Satisfiable, None
    | Some `Exhausted, None when satisfaction -> Bsolo.Outcome.Unsatisfiable, None
    | Some `Exhausted, Some (_, c) ->
      if c <= !upper then Bsolo.Outcome.Optimal, Some c
      else Bsolo.Outcome.Unknown, Some !upper
    | Some `Exhausted, None ->
      if !imported then Bsolo.Outcome.Unknown, Some !upper
      else Bsolo.Outcome.Unsatisfiable, None
    | Some `Budget, _ | None, _ -> Bsolo.Outcome.Unknown, None
  in
  let counters = Bsolo.Outcome.counters_of_registry tel.registry in
  Telemetry.Recorder.fin recorder
    ~status:(Bsolo.Outcome.status_name status)
    ~nodes:counters.nodes ~decisions:counters.decisions ~conflicts:counters.conflicts;
  {
    Bsolo.Outcome.status;
    best = !best;
    proved_lb;
    counters;
    elapsed = Unix.gettimeofday () -. start;
  }
