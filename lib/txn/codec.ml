open Strip_relational

exception Decode_error of string

let () =
  Printexc.register_printer (function
    | Decode_error msg -> Some (Printf.sprintf "Codec.Decode_error(%s)" msg)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writers append to a [Buffer.t]; all integers are little-endian.      *)

let put_u8 b i = Buffer.add_char b (Char.chr (i land 0xff))

(* [Int32.of_int] wraps modulo 2^32, so every in-range value keeps its
   low 32 bits exactly. *)
let put_u32 b i =
  if i < 0 || i > 0xFFFFFFFF then invalid_arg "Codec.put_u32: out of range";
  Buffer.add_int32_le b (Int32.of_int i)

let put_i64 b (i : int64) = Buffer.add_int64_le b i

let put_int b i = put_i64 b (Int64.of_int i)
let put_float b f = put_i64 b (Int64.bits_of_float f)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b f xs =
  put_u32 b (List.length xs);
  List.iter (f b) xs

let put_value b = function
  | Value.Null -> put_u8 b 0
  | Value.Bool x ->
    put_u8 b 1;
    put_u8 b (Bool.to_int x)
  | Value.Int x ->
    put_u8 b 2;
    put_int b x
  | Value.Float x ->
    put_u8 b 3;
    put_float b x
  | Value.Str s ->
    put_u8 b 4;
    put_string b s

let put_values b arr =
  put_u32 b (Array.length arr);
  Array.iter (put_value b) arr

let put_ty b = function
  | Value.TBool -> put_u8 b 0
  | Value.TInt -> put_u8 b 1
  | Value.TFloat -> put_u8 b 2
  | Value.TStr -> put_u8 b 3

(* ------------------------------------------------------------------ *)
(* Readers.                                                             *)

type reader = {
  data : string;
  mutable pos : int;
}

let reader ?(pos = 0) data = { data; pos }
let position r = r.pos
let remaining r = String.length r.data - r.pos

let get_u8 r =
  if remaining r < 1 then fail "get_u8: truncated input at %d" r.pos;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_u32 r =
  if remaining r < 4 then fail "get_u32: truncated input at %d" r.pos;
  let b0 = get_u8 r and b1 = get_u8 r and b2 = get_u8 r and b3 = get_u8 r in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let get_i64 r =
  if remaining r < 8 then fail "get_i64: truncated input at %d" r.pos;
  let v = ref 0L in
  for k = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (get_u8 r)) (8 * k))
  done;
  !v

let get_int r = Int64.to_int (get_i64 r)
let get_float r = Int64.float_of_bits (get_i64 r)

let get_string r =
  let len = get_u32 r in
  if remaining r < len then fail "get_string: truncated input at %d" r.pos;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let get_list r f =
  let n = get_u32 r in
  List.init n (fun _ -> f r)

let get_value r =
  match get_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (get_u8 r <> 0)
  | 2 -> Value.Int (get_int r)
  | 3 -> Value.Float (get_float r)
  | 4 -> Value.Str (get_string r)
  | tag -> fail "get_value: unknown tag %d" tag

let get_values r =
  let n = get_u32 r in
  Array.init n (fun _ -> get_value r)

let get_ty r =
  match get_u8 r with
  | 0 -> Value.TBool
  | 1 -> Value.TInt
  | 2 -> Value.TFloat
  | 3 -> Value.TStr
  | tag -> fail "get_ty: unknown tag %d" tag

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), the classic reflected polynomial, computed
   slice-by-8: table [k] advances the CRC over a byte followed by [k]
   zero bytes, so eight table lookups consume eight input bytes at once.
   Table 0 is the classic bytewise table, which finishes the tail. *)

let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let p = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (p lsr 8) lxor t.(p land 0xff)
    done
  done;
  t

let crc32 ?(pos = 0) ?len s =
  let n = String.length s in
  let len = match len with Some l -> l | None -> n - pos in
  (* the range check covers every unchecked access below *)
  if pos < 0 || len < 0 || pos > n - len then
    invalid_arg "Codec.crc32: range out of bounds";
  let byte i = Char.code (String.unsafe_get s i) in
  let tbl k i = Array.unsafe_get crc_tables ((k lsl 8) lor i) in
  let stop = pos + len in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  while !i + 8 <= stop do
    let p = !i in
    let x =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      tbl 7 (x land 0xff)
      lxor tbl 6 ((x lsr 8) land 0xff)
      lxor tbl 5 ((x lsr 16) land 0xff)
      lxor tbl 4 (x lsr 24)
      lxor tbl 3 (byte (p + 4))
      lxor tbl 2 (byte (p + 5))
      lxor tbl 1 (byte (p + 6))
      lxor tbl 0 (byte (p + 7));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    c := tbl 0 ((!c lxor byte p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
