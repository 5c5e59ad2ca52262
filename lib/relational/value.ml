type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = TBool | TInt | TFloat | TStr

exception Type_error of string

let ty_name = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"

let ty_of_string s =
  match String.lowercase_ascii s with
  | "bool" | "boolean" -> Some TBool
  | "int" | "integer" -> Some TInt
  | "float" | "real" | "double" -> Some TFloat
  | "string" | "text" | "varchar" | "char" -> Some TStr
  | _ -> None

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr

let conforms v ty =
  match (v, ty) with
  | Null, _ -> true
  | Bool _, TBool -> true
  | Int _, TInt -> true
  | Int _, TFloat -> true
  | Float _, TFloat -> true
  | Str _, TStr -> true
  | (Bool _ | Int _ | Float _ | Str _), _ -> false

let to_string = function
  | Null -> "NULL"
  | Bool true -> "true"
  | Bool false -> "false"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let type_error op a b =
  raise
    (Type_error
       (Printf.sprintf "%s: incompatible operands %s and %s" op (to_string a)
          (to_string b)))

(* Numeric comparison across Int/Float; used by both [equal] and [compare]. *)
let num_cmp a b =
  match (a, b) with
  | Int x, Int y -> Some (Int.compare x y)
  | Int x, Float y -> Some (Float.compare (float_of_int x) y)
  | Float x, Int y -> Some (Float.compare x (float_of_int y))
  | Float x, Float y -> Some (Float.compare x y)
  | _ -> None

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | (Int _ | Float _), (Int _ | Float _) -> (
    match num_cmp a b with Some c -> c = 0 | None -> false)
  | _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match num_cmp a b with
  | Some c -> c
  | None -> (
    let ra = rank a and rb = rank b in
    if ra <> rb then Int.compare ra rb
    else
      match (a, b) with
      | Null, Null -> 0
      | Bool x, Bool y -> Bool.compare x y
      | Str x, Str y -> String.compare x y
      | _ -> assert false)

let cmp_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ ->
    if rank a <> rank b then None else Some (compare a b)

let hash = function
  | Null -> 17
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let arith name iop fop a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (iop x y)
  | Int x, Float y -> Float (fop (float_of_int x) y)
  | Float x, Int y -> Float (fop x (float_of_int y))
  | Float x, Float y -> Float (fop x y)
  | _ -> type_error name a b

let add a b = arith "add" ( + ) ( +. ) a b
let sub a b = arith "sub" ( - ) ( -. ) a b
let mul a b = arith "mul" ( * ) ( *. ) a b
let div a b = arith "div" ( / ) ( /. ) a b

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> raise (Type_error ("neg: non-numeric operand " ^ to_string v))

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ -> Str (to_string a ^ to_string b)

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> raise (Type_error ("to_float: non-numeric value " ^ to_string v))

let to_int = function
  | Int i -> i
  | v -> raise (Type_error ("to_int: non-integer value " ^ to_string v))

let is_null = function Null -> true | _ -> false
