type term = {
  coeff : int;
  lit : Lit.t;
}

type t = {
  terms : term array;
  degree : int;
}

type norm =
  | Trivial_true
  | Trivial_false
  | Constr of t

type relation =
  | Ge
  | Le
  | Eq

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Merge raw terms by variable.  For variable [v] with accumulated weight
   [p] on the positive literal and [n] on the negative one we use
   [p*x + n*~x = n + (p - n)*x]: the constant [n] moves to the right-hand
   side and a single signed weight remains on [x]. *)
let merge_by_var raw rhs =
  let tbl = Hashtbl.create 16 in
  let add l c =
    let v = Lit.var l in
    let p, n = try Hashtbl.find tbl v with Not_found -> 0, 0 in
    let entry = if Lit.is_pos l then p + c, n else p, n + c in
    Hashtbl.replace tbl v entry
  in
  List.iter (fun (c, l) -> add l c) raw;
  let rhs = ref rhs in
  let merged = ref [] in
  let collect v (p, n) =
    rhs := !rhs - n;
    let w = p - n in
    if w > 0 then merged := { coeff = w; lit = Lit.pos v } :: !merged
    else if w < 0 then begin
      (* [w*x = w - w*~x] with [w < 0]: move the constant [w] right. *)
      rhs := !rhs - w;
      merged := { coeff = -w; lit = Lit.neg v } :: !merged
    end
  in
  Hashtbl.iter collect tbl;
  !merged, !rhs

let compare_terms t1 t2 =
  if t1.coeff <> t2.coeff then compare t2.coeff t1.coeff
  else compare (Lit.var t1.lit) (Lit.var t2.lit)

(* Guard against coefficient magnitudes that could overflow slack sums
   (63-bit ints leave ample headroom below this bound). *)
let coefficient_limit = 1 lsl 40
let degree_limit = 4 * coefficient_limit

let make_ge raw rhs =
  List.iter
    (fun (c, _) ->
      if abs c > coefficient_limit then invalid_arg "Constr.make_ge: coefficient too large")
    raw;
  if abs rhs > degree_limit then invalid_arg "Constr.make_ge: degree too large";
  let merged, rhs = merge_by_var raw rhs in
  if rhs <= 0 then Trivial_true
  else begin
    let saturated = List.map (fun t -> { t with coeff = min t.coeff rhs }) merged in
    let total = List.fold_left (fun acc t -> acc + t.coeff) 0 saturated in
    if total < rhs then Trivial_false
    else begin
      let g = List.fold_left (fun acc t -> gcd acc t.coeff) 0 saturated in
      let divide t = { t with coeff = t.coeff / g } in
      let reduced = List.map divide saturated in
      let degree = (rhs + g - 1) / g in
      let terms = Array.of_list reduced in
      Array.sort compare_terms terms;
      Constr { terms; degree }
    end
  end

let of_relation raw rel rhs =
  let negated () =
    (* [sum <= rhs] is [sum (-a_i) l_i >= -rhs]. *)
    let flipped = List.map (fun (c, l) -> -c, l) raw in
    make_ge flipped (-rhs)
  in
  match rel with
  | Ge -> [ make_ge raw rhs ]
  | Le -> [ negated () ]
  | Eq -> [ make_ge raw rhs; negated () ]

let with_degree c degree =
  let max_coeff = if Array.length c.terms = 0 then 0 else c.terms.(0).coeff in
  let sum = Array.fold_left (fun acc t -> acc + t.coeff) 0 c.terms in
  if degree < max 1 max_coeff || degree > sum then invalid_arg "Constr.with_degree";
  { c with degree }

let clause lits = make_ge (List.map (fun l -> 1, l) lits) 1
let cardinality lits k = make_ge (List.map (fun l -> 1, l) lits) k
let terms c = c.terms
let degree c = c.degree
let size c = Array.length c.terms
let is_clause c = c.degree = 1

let is_cardinality c =
  Array.length c.terms = 0 || c.terms.(0).coeff = c.terms.(Array.length c.terms - 1).coeff

let max_coeff c = if Array.length c.terms = 0 then 0 else c.terms.(0).coeff

let coeff_sum c = Array.fold_left (fun acc t -> acc + t.coeff) 0 c.terms

(* Terms are sorted by decreasing coefficient, so a prefix sum yields the
   least number of true literals needed to reach the degree. *)
let min_true_count c =
  let rec go i acc =
    if acc >= c.degree then i
    else if i >= Array.length c.terms then invalid_arg "Constr.min_true_count"
    else go (i + 1) (acc + c.terms.(i).coeff)
  in
  go 0 0

let fold_lits f c init = Array.fold_left (fun acc t -> f t.lit acc) init c.terms

let slack_under value c =
  let weight acc t =
    match value t.lit with
    | Value.False -> acc
    | Value.True | Value.Unknown -> acc + t.coeff
  in
  Array.fold_left weight 0 c.terms - c.degree

let is_satisfied_under value c =
  let weight acc t =
    match value t.lit with
    | Value.True -> acc + t.coeff
    | Value.False | Value.Unknown -> acc
  in
  Array.fold_left weight 0 c.terms >= c.degree

let satisfied_by assignment c =
  let weight acc t = if assignment t.lit then acc + t.coeff else acc in
  Array.fold_left weight 0 c.terms >= c.degree

let equal c1 c2 = c1.degree = c2.degree && c1.terms = c2.terms
let compare = Stdlib.compare

let pp ppf c =
  let pp_term ppf t =
    if t.coeff = 1 then Lit.pp ppf t.lit
    else Format.fprintf ppf "%d %a" t.coeff Lit.pp t.lit
  in
  Format.fprintf ppf "@[%a >= %d@]"
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf " +@ ") pp_term)
    (Array.to_seq c.terms) c.degree

let to_string c = Format.asprintf "%a" pp c
