exception Parse_error of string

type token =
  | Int of int
  | Var of Lit.t
  | Rel of Constr.relation
  | Min
  | Semi

(* Tokenizer: splits a line into integers, (possibly negated) variables,
   relations, the [min:] keyword and semicolons.  Whitespace separates
   tokens but [>=], [<=], [=] and [;] are also recognized when glued to
   their neighbours, as some generators emit them without spaces. *)
let tokenize_line ~lineno line =
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg)) in
  let n = String.length line in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i =
    if i >= n then ()
    else
      match line.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | ';' ->
        emit Semi;
        go (i + 1)
      | '>' ->
        if i + 1 < n && line.[i + 1] = '=' then begin
          emit (Rel Constr.Ge);
          go (i + 2)
        end
        else fail "expected '>='"
      | '<' ->
        if i + 1 < n && line.[i + 1] = '=' then begin
          emit (Rel Constr.Le);
          go (i + 2)
        end
        else fail "expected '<='"
      | '=' ->
        emit (Rel Constr.Eq);
        go (i + 1)
      | '+' | '-' ->
        let stop = number_end (i + 1) in
        if stop = i + 1 then fail "sign without digits";
        emit (Int (number i stop));
        go stop
      | '0' .. '9' ->
        let stop = number_end i in
        emit (Int (number i stop));
        go stop
      | '~' -> variable (i + 1) ~negated:true
      | 'x' -> variable i ~negated:false
      | 'm' ->
        if i + 3 < n && String.sub line i 4 = "min:" then begin
          emit Min;
          go (i + 4)
        end
        else fail "unexpected 'm'"
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  and number_end i = if i < n && is_digit line.[i] then number_end (i + 1) else i
  and number i stop =
    match int_of_string_opt (String.sub line i (stop - i)) with
    | Some v -> v
    | None -> fail (Printf.sprintf "number %s out of range" (String.sub line i (stop - i)))
  and variable i ~negated =
    if i >= n || line.[i] <> 'x' then fail "expected variable after '~'";
    let stop = number_end (i + 1) in
    if stop = i + 1 then fail "variable without index";
    let idx = number (i + 1) stop in
    if idx < 1 then fail "variable indices start at 1";
    emit (Var (Lit.make (idx - 1) (not negated)));
    go stop
  in
  go 0;
  List.rev !tokens

(* Statements may span lines; we accumulate tokens until each ';'. *)
(* Non-linear product terms ([+2 x1 x2]) are linearized on the fly: a
   cached Tseitin variable stands for each distinct literal product. *)
let product_var builder cache lits =
  let key = List.sort Lit.compare lits in
  match Hashtbl.find_opt cache key with
  | Some l -> l
  | None ->
    let l = Encode.and_var builder key in
    Hashtbl.add cache key l;
    l

(* Magnitude checks, one comparison per term.  Constraint coefficients
   and right-hand sides must stay within what [Constr.make_ge] accepts.
   The objective is bounded the same way, and so is the sum of its
   absolute costs: it caps every incumbent cost, so [max_cost_sum + 1],
   [path + lb] and the incumbent cut's degree cannot overflow. *)
let parse_tokens builder cache ~lineno tokens =
  let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg)) in
  let bounded what limit v =
    if v < -limit || v > limit then fail (Printf.sprintf "%s %d exceeds %d" what v limit)
  in
  let check_terms raw =
    List.iter (fun (c, _) -> bounded "coefficient" Constr.coefficient_limit c) raw
  in
  let check_costs raw =
    let sum = ref 0 in
    List.iter
      (fun (c, _) ->
        bounded "cost" Constr.coefficient_limit c;
        sum := !sum + abs c;
        bounded "absolute cost sum" Constr.degree_limit !sum)
      raw
  in
  let rec product acc = function
    | Var l :: rest -> product (l :: acc) rest
    | rest -> List.rev acc, rest
  in
  let rec terms acc tokens =
    match tokens with
    | Int c :: (Var _ :: _ as rest) ->
      let lits, rest = product [] rest in
      (match lits with
      | [ l ] -> terms ((c, l) :: acc) rest
      | _ :: _ :: _ -> terms ((c, product_var builder cache lits) :: acc) rest
      | [] -> fail "coefficient without variable")
    | Var _ :: _ ->
      let lits, rest = product [] tokens in
      (match lits with
      | [ l ] -> terms ((1, l) :: acc) rest
      | _ :: _ :: _ -> terms ((1, product_var builder cache lits) :: acc) rest
      | [] -> fail "empty product")
    | rest -> List.rev acc, rest
  in
  match tokens with
  | [] -> ()
  | Min :: rest ->
    (match terms [] rest with
    | raw, [ Semi ] ->
      check_costs raw;
      Problem.Builder.set_objective builder raw
    | _, _ -> fail "malformed objective")
  | rest ->
    (match terms [] rest with
    | raw, [ Rel rel; Int rhs; Semi ] ->
      check_terms raw;
      bounded "right-hand side" Constr.degree_limit rhs;
      List.iter (Problem.Builder.add_norm builder) (Constr.of_relation raw rel rhs)
    | _, _ -> fail "malformed constraint")

(* Two passes: statements are split first and the builder is pre-sized to
   the largest variable the file mentions, so that Tseitin product
   variables are allocated above the file's own variables. *)
let parse_lines lines =
  let statements = ref [] in
  let pending = ref [] in
  let pending_line = ref 0 in
  let feed lineno line =
    let is_comment =
      let trimmed = String.trim line in
      String.length trimmed > 0 && trimmed.[0] = '*'
    in
    if not is_comment then begin
      let tokens = tokenize_line ~lineno line in
      if !pending = [] then pending_line := lineno;
      let rec split acc = function
        | [] -> pending := !pending @ List.rev acc
        | Semi :: rest ->
          let stmt = !pending @ List.rev (Semi :: acc) in
          pending := [];
          statements := (!pending_line, stmt) :: !statements;
          pending_line := lineno;
          split [] rest
        | t :: rest -> split (t :: acc) rest
      in
      split [] tokens
    end
  in
  List.iteri (fun i line -> feed (i + 1) line) lines;
  if !pending <> [] then
    raise (Parse_error (Printf.sprintf "line %d: statement not terminated by ';'" !pending_line));
  let statements = List.rev !statements in
  let max_var =
    List.fold_left
      (fun acc (_, stmt) ->
        List.fold_left
          (fun acc tok -> match tok with Var l -> max acc (Lit.var l) | Int _ | Rel _ | Min | Semi -> acc)
          acc stmt)
      (-1) statements
  in
  let builder = Problem.Builder.create ~nvars:(max_var + 1) () in
  let cache = Hashtbl.create 16 in
  List.iter (fun (lineno, stmt) -> parse_tokens builder cache ~lineno stmt) statements;
  Problem.Builder.build builder

let parse_string s = parse_lines (String.split_on_char '\n' s)

let parse_file path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  parse_lines lines

let print ppf p =
  let nconstr = Array.length (Problem.constraints p) in
  Format.fprintf ppf "* #variable= %d #constraint= %d@." (Problem.nvars p) nconstr;
  (match Problem.objective p with
  | None -> ()
  | Some o ->
    (* OPB cannot express a constant term; record it as a comment.  The
       parsed-back problem therefore differs from [p] by that constant. *)
    if o.offset <> 0 then Format.fprintf ppf "* objective offset %d@." o.offset;
    Format.fprintf ppf "min:";
    let pp_cost (t : Problem.cost_term) =
      Format.fprintf ppf " +%d %a" t.cost Lit.pp t.lit
    in
    Array.iter pp_cost o.cost_terms;
    Format.fprintf ppf " ;@.");
  let pp_constr c =
    let pp_term (t : Constr.term) = Format.fprintf ppf "+%d %a " t.coeff Lit.pp t.lit in
    Array.iter pp_term (Constr.terms c);
    Format.fprintf ppf ">= %d ;@." (Constr.degree c)
  in
  Array.iter pp_constr (Problem.constraints p)

let to_string p = Format.asprintf "%a" print p

let write_file path p =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  print ppf p;
  Format.pp_print_flush ppf ();
  close_out oc
