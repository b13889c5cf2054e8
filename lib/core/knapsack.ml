open Pbo

(* A cut source: [sum c_j l_j <= upper - 1 - v] over fixed cost terms.
   Negated and normalized this is [sum c_j ~l_j >= sum - (upper - 1 - v)]
   with every coefficient divided by [gcd]; once that degree reaches
   [max_coeff], saturation clips nothing, so the cut is [shape] with only
   its degree changed.  Below it the cut is normalized from [raw]. *)
type source = {
  origin : int option;
  raw : (int * Lit.t) list;
  v : int;
  sum : int;
  gcd : int;
  max_coeff : int;
  shape : Constr.t option;  (* the unclipped normal form; [None] when [raw] has no cost *)
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let single = function [ n ] -> n | [] | _ :: _ :: _ -> assert false

let source_of ~origin ~v raw =
  let sum = List.fold_left (fun acc (c, _) -> acc + c) 0 raw in
  let gcd = List.fold_left (fun acc (c, _) -> gcd acc c) 0 raw in
  let max_coeff = List.fold_left (fun acc (c, _) -> max acc c) 0 raw in
  let shape =
    match Constr.of_relation raw Constr.Le 0 with
    | [ Constr.Constr c ] -> Some c
    | [ (Constr.Trivial_true | Constr.Trivial_false) ] | [] | _ :: _ :: _ -> None
  in
  { origin; raw; v; sum; gcd; max_coeff; shape }

let cut s ~upper =
  let d = s.sum - (upper - 1 - s.v) in
  match s.shape with
  | Some _ when d <= 0 -> Constr.Trivial_true
  | Some _ when d > s.sum -> Constr.Trivial_false
  | Some shape when d >= s.max_coeff ->
    Constr.Constr (Constr.with_degree shape ((d + s.gcd - 1) / s.gcd))
  | Some _ | None -> single (Constr.of_relation s.raw Constr.Le (upper - 1 - s.v))

let origin s = s.origin
let slot s = match s.origin with None -> 0 | Some cid -> cid + 1

let cost_terms p =
  match Problem.objective p with
  | None -> [||]
  | Some o -> o.cost_terms

let knapsack_source p =
  source_of ~origin:None ~v:0
    (Array.to_list (Array.map (fun (ct : Problem.cost_term) -> ct.cost, ct.lit) (cost_terms p)))

(* Per literal index, the cost of making that literal true. *)
let lit_costs p =
  let costs = Array.make (2 * max 1 (Problem.nvars p)) 0 in
  Array.iter
    (fun (ct : Problem.cost_term) -> costs.(Lit.to_index ct.lit) <- ct.cost)
    (cost_terms p);
  costs

(* V of eq. (12): the U smallest costs of making literals of K true. *)
let min_mandatory_cost costs c =
  let sorted =
    List.sort compare (Constr.fold_lits (fun l acc -> costs.(Lit.to_index l) :: acc) c [])
  in
  let rec take k acc = function
    | [] -> acc
    | x :: rest -> if k = 0 then acc else take (k - 1) (acc + x) rest
  in
  take (Constr.degree c) 0 sorted

let cardinality_sources p =
  let costs = lit_costs p in
  let in_k = Array.make (max 1 (Problem.nvars p)) false in
  let source cid c =
    if not (Constr.is_cardinality c) then None
    else begin
      let v = min_mandatory_cost costs c in
      if v <= 0 then None
      else begin
        Constr.fold_lits (fun l () -> in_k.(Lit.var l) <- true) c ();
        let raw =
          Array.fold_right
            (fun (ct : Problem.cost_term) acc ->
              if in_k.(Lit.var ct.lit) then acc else (ct.cost, ct.lit) :: acc)
            (cost_terms p) []
        in
        Constr.fold_lits (fun l () -> in_k.(Lit.var l) <- false) c ();
        Some (source_of ~origin:(Some cid) ~v raw)
      end
    end
  in
  Array.to_list (Problem.constraints p) |> List.mapi source |> List.filter_map Fun.id

let upper_cut p ~upper = cut (knapsack_source p) ~upper

let cardinality_inferences_cids p ~upper =
  List.map (fun s -> Option.get s.origin, cut s ~upper) (cardinality_sources p)

let cardinality_inferences p ~upper = List.map snd (cardinality_inferences_cids p ~upper)
