let c_predicate_eval = Meter.counter "predicate_eval"

type unop = Neg | Not | Is_null | Is_not_null

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Concat

type t =
  | Const of Value.t
  | Col of string option * string
  | Bound of int
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list

exception Unknown_column of string
exception Unknown_function of string

let col ?qual name = Col (qual, name)
let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let str s = Const (Value.Str s)
let bool b = Const (Value.Bool b)

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Neq, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( &&: ) a b = Binop (And, a, b)
let ( ||: ) a b = Binop (Or, a, b)

(* Scalar function registry. *)

type entry = { fn : Value.t list -> Value.t; ret : Value.ty option }

let funs : (string, entry) Hashtbl.t = Hashtbl.create 16

let register_fun name ?ret fn =
  Hashtbl.replace funs (String.lowercase_ascii name) { fn; ret }

let find_entry name = Hashtbl.find_opt funs (String.lowercase_ascii name)

let () =
  let num1 name f = function
    | [ v ] when not (Value.is_null v) -> Value.Float (f (Value.to_float v))
    | [ Value.Null ] -> Value.Null
    | _ -> raise (Value.Type_error (name ^ ": expects one numeric argument"))
  in
  register_fun "abs" ~ret:Value.TFloat (num1 "abs" Float.abs);
  register_fun "sqrt" ~ret:Value.TFloat (num1 "sqrt" Float.sqrt);
  register_fun "ln" ~ret:Value.TFloat (num1 "ln" Float.log);
  register_fun "exp" ~ret:Value.TFloat (num1 "exp" Float.exp);
  register_fun "round" ~ret:Value.TFloat (num1 "round" Float.round);
  register_fun "floor" ~ret:Value.TFloat (num1 "floor" Float.floor)

let name_of (qual, name) =
  match qual with Some q -> q ^ "." ^ name | None -> name

let rec resolve schema e =
  match e with
  | Const _ | Bound _ -> e
  | Col (qual, name) -> (
    match Schema.find schema ?qual name with
    | Some i -> Bound i
    | None -> raise (Unknown_column (name_of (qual, name))))
  | Unop (op, a) -> Unop (op, resolve schema a)
  | Binop (op, a, b) -> Binop (op, resolve schema a, resolve schema b)
  | Call (f, args) -> Call (f, List.map (resolve schema) args)

(* SQL three-valued comparison: Null if either side is Null. *)
let cmp3 keep a b =
  match Value.cmp_sql a b with
  | None -> Value.Null
  | Some c -> Value.Bool (keep c)

let rec eval_raw e row =
  match e with
  | Const v -> v
  | Bound i -> row.(i)
  | Col (qual, name) -> raise (Unknown_column (name_of (qual, name)))
  | Unop (op, a) -> (
    let va = eval_raw a row in
    match op with
    | Neg -> Value.neg va
    | Not -> (
      match va with
      | Value.Null -> Value.Null
      | Value.Bool b -> Value.Bool (not b)
      | v -> raise (Value.Type_error ("NOT: non-boolean " ^ Value.to_string v)))
    | Is_null -> Value.Bool (Value.is_null va)
    | Is_not_null -> Value.Bool (not (Value.is_null va)))
  | Binop (And, a, b) -> (
    (* Kleene AND with short-circuit on false. *)
    match eval_raw a row with
    | Value.Bool false -> Value.Bool false
    | Value.Bool true -> (
      match eval_raw b row with
      | Value.Bool _ as v -> v
      | Value.Null -> Value.Null
      | v -> raise (Value.Type_error ("AND: non-boolean " ^ Value.to_string v)))
    | Value.Null -> (
      match eval_raw b row with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true | Value.Null -> Value.Null
      | v -> raise (Value.Type_error ("AND: non-boolean " ^ Value.to_string v)))
    | v -> raise (Value.Type_error ("AND: non-boolean " ^ Value.to_string v)))
  | Binop (Or, a, b) -> (
    match eval_raw a row with
    | Value.Bool true -> Value.Bool true
    | Value.Bool false -> (
      match eval_raw b row with
      | Value.Bool _ as v -> v
      | Value.Null -> Value.Null
      | v -> raise (Value.Type_error ("OR: non-boolean " ^ Value.to_string v)))
    | Value.Null -> (
      match eval_raw b row with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false | Value.Null -> Value.Null
      | v -> raise (Value.Type_error ("OR: non-boolean " ^ Value.to_string v)))
    | v -> raise (Value.Type_error ("OR: non-boolean " ^ Value.to_string v)))
  | Binop (op, a, b) -> (
    let va = eval_raw a row and vb = eval_raw b row in
    match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb
    | Mod -> (
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int x, Value.Int y -> Value.Int (x mod y)
      | _ ->
        raise
          (Value.Type_error
             (Printf.sprintf "MOD: non-integer operands %s, %s"
                (Value.to_string va) (Value.to_string vb))))
    | Eq -> cmp3 (fun c -> c = 0) va vb
    | Neq -> cmp3 (fun c -> c <> 0) va vb
    | Lt -> cmp3 (fun c -> c < 0) va vb
    | Le -> cmp3 (fun c -> c <= 0) va vb
    | Gt -> cmp3 (fun c -> c > 0) va vb
    | Ge -> cmp3 (fun c -> c >= 0) va vb
    | Concat -> Value.concat va vb
    | And | Or -> assert false)
  | Call (f, args) -> (
    match find_entry f with
    | None -> raise (Unknown_function f)
    | Some e ->
      let vs = List.map (fun a -> eval_raw a row) args in
      e.fn vs)

let eval e row =
  Meter.tick_c c_predicate_eval;
  eval_raw e row

let eval_pred e row =
  match eval e row with
  | Value.Bool b -> b
  | Value.Null -> false
  | v ->
    raise (Value.Type_error ("predicate: non-boolean " ^ Value.to_string v))

let columns_used e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ | Bound _ -> ()
    | Col (q, n) ->
      let key = name_of (q, n) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        acc := (q, n) :: !acc
      end
    | Unop (_, a) -> go a
    | Binop (_, a, b) ->
      go a;
      go b
    | Call (_, args) -> List.iter go args
  in
  go e;
  List.rev !acc

let rec infer_type schema e =
  match e with
  | Const v -> Value.type_of v
  | Col (qual, name) ->
    Option.map
      (fun i -> (Schema.col schema i).Schema.cty)
      (Schema.find schema ?qual name)
  | Bound i ->
    if i < Schema.arity schema then Some (Schema.col schema i).Schema.cty
    else None
  | Unop (Neg, a) -> infer_type schema a
  | Unop ((Not | Is_null | Is_not_null), _) -> Some Value.TBool
  | Binop ((Add | Sub | Mul | Div), a, b) -> (
    match (infer_type schema a, infer_type schema b) with
    | Some Value.TInt, Some Value.TInt -> Some Value.TInt
    | Some (Value.TInt | Value.TFloat), Some (Value.TInt | Value.TFloat) ->
      Some Value.TFloat
    | _ -> None)
  | Binop (Mod, _, _) -> Some Value.TInt
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge | And | Or), _, _) -> Some Value.TBool
  | Binop (Concat, _, _) -> Some Value.TStr
  | Call (f, _) -> (
    match find_entry f with Some e -> e.ret | None -> None)

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"
  | Concat -> "||"

let rec pp ppf = function
  | Const v -> (
    match v with
    | Value.Str s -> Format.fprintf ppf "'%s'" s
    | v -> Value.pp ppf v)
  | Col (q, n) -> Format.pp_print_string ppf (name_of (q, n))
  | Bound i -> Format.fprintf ppf "$%d" i
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp a
  | Unop (Not, a) -> Format.fprintf ppf "(not %a)" pp a
  | Unop (Is_null, a) -> Format.fprintf ppf "(%a is null)" pp a
  | Unop (Is_not_null, a) -> Format.fprintf ppf "(%a is not null)" pp a
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Call (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp)
      args
