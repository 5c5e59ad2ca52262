type column = {
  cname : string;
  cqual : string option;
  cty : Value.ty;
}

type t = { cols : column array }

exception Ambiguous of string

let column ?qual cname cty = { cname; cqual = qual; cty }

let key c =
  (match c.cqual with Some q -> q ^ "." | None -> "") ^ c.cname

let make cols =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let k = key c in
      if Hashtbl.mem seen k then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %s" k);
      Hashtbl.add seen k ())
    cols;
  { cols = Array.of_list cols }

let of_list l = make (List.map (fun (n, ty) -> column n ty) l)

let columns s = Array.to_list s.cols

let arity s = Array.length s.cols

let names s = Array.to_list (Array.map (fun c -> c.cname) s.cols)

let col s i =
  if i < 0 || i >= Array.length s.cols then
    invalid_arg (Printf.sprintf "Schema.col: index %d out of range" i);
  s.cols.(i)

let find s ?qual name =
  match qual with
  | Some q ->
    let rec loop i =
      if i >= Array.length s.cols then None
      else
        let c = s.cols.(i) in
        if c.cname = name && c.cqual = Some q then Some i else loop (i + 1)
    in
    loop 0
  | None ->
    let matches = ref [] in
    Array.iteri
      (fun i c -> if c.cname = name then matches := i :: !matches)
      s.cols;
    (match !matches with
    | [] -> None
    | [ i ] -> Some i
    | _ -> raise (Ambiguous name))

let find_exn s ?qual name =
  match find s ?qual name with Some i -> i | None -> raise Not_found

let mem s name =
  Array.exists (fun c -> c.cname = name) s.cols

let requalify alias s =
  { cols = Array.map (fun c -> { c with cqual = Some alias }) s.cols }

let unqualify s = { cols = Array.map (fun c -> { c with cqual = None }) s.cols }

let append a b =
  make (columns a @ columns b)

let equal_layout a b =
  arity a = arity b
  && Array.for_all2
       (fun ca cb -> ca.cname = cb.cname && ca.cty = cb.cty)
       a.cols b.cols

(* Top-level rather than a local closure: every row write validates. *)
let rec validate_from s row i =
  if i >= arity s then Ok ()
  else if not (Value.conforms row.(i) s.cols.(i).cty) then
    Error
      (Printf.sprintf "column %s expects %s, got %s" s.cols.(i).cname
         (Value.ty_name s.cols.(i).cty)
         (Value.to_string row.(i)))
  else validate_from s row (i + 1)

let validate_row s row =
  if Array.length row <> arity s then
    Error
      (Printf.sprintf "row arity %d does not match schema arity %d"
         (Array.length row) (arity s))
  else validate_from s row 0

let pp ppf s =
  Format.fprintf ppf "(%s)"
    (String.concat ", "
       (List.map
          (fun c -> Printf.sprintf "%s %s" (key c) (Value.ty_name c.cty))
          (columns s)))
