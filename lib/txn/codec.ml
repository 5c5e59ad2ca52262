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

(* Each writer calls [Buffer.add_int64_le] on its conversion directly:
   the call is inlined, so the [int64] is never boxed.  Passed through a
   helper that takes an [int64] it would be, 3 words a call. *)
let put_int b i = Buffer.add_int64_le b (Int64.of_int i)
let put_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

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

(* A reader covers [data.[pos, lim)].  A checking reader runs the same
   grammar, every tag, length and bounds check included, but builds
   nothing: strings, floats, values, arrays and lists are skipped and a
   constant placeholder ([""], [0.0], [Null], [[||]], [[]]) is returned,
   so a verdict-only scan allocates no word per byte it reads. *)
type reader = {
  data : string;
  mutable pos : int;
  mutable lim : int;
  check : bool;
}

let bounds fn data pos len =
  if pos < 0 || len < 0 || pos > String.length data - len then
    invalid_arg (fn ^ ": range out of bounds")

let reader ?(pos = 0) ?len ?(check = false) data =
  let len = match len with Some l -> l | None -> String.length data - pos in
  bounds "Codec.reader" data pos len;
  { data; pos; lim = pos + len; check }

let seek r ~pos ~len =
  bounds "Codec.seek" r.data pos len;
  r.pos <- pos;
  r.lim <- pos + len

let position r = r.pos
let remaining r = r.lim - r.pos

let skip r n what =
  if remaining r < n then fail "%s: truncated input at %d" what r.pos;
  r.pos <- r.pos + n

let get_u8 r =
  if remaining r < 1 then fail "get_u8: truncated input at %d" r.pos;
  let c = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  c

let get_u32 r =
  if remaining r < 4 then fail "get_u32: truncated input at %d" r.pos;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

(* The offset of the next 8 bytes, consumed, after a bounds check. *)
let take8 r =
  if remaining r < 8 then fail "get_i64: truncated input at %d" r.pos;
  let p = r.pos in
  r.pos <- p + 8;
  p

(* [get_int] and [get_float] read the bytes in place: a call returning
   an [int64] would box it (3 words per read), while the inline
   primitive stays unboxed. *)
let get_int r =
  if r.check then begin
    skip r 8 "get_i64";
    0
  end
  else Int64.to_int (String.get_int64_le r.data (take8 r))

let get_float r =
  if r.check then begin
    skip r 8 "get_float";
    0.0
  end
  else Int64.float_of_bits (String.get_int64_le r.data (take8 r))

let get_string r =
  let len = get_u32 r in
  if remaining r < len then fail "get_string: truncated input at %d" r.pos;
  let s = if r.check then "" else String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* Every element of a list or array takes at least one byte, so a count
   beyond the bytes left is truncation, found before anything is
   allocated for it. *)
let get_count r what =
  let n = get_u32 r in
  if n > remaining r then fail "%s: count %d past the input at %d" what n r.pos;
  n

let get_list r f =
  let n = get_count r "get_list" in
  if r.check then begin
    for _ = 1 to n do
      ignore (f r)
    done;
    []
  end
  else List.init n (fun _ -> f r)

let get_value r =
  match get_u8 r with
  | 0 -> Value.Null
  | 1 ->
    let b = get_u8 r in
    if r.check then Value.Null else Value.Bool (b <> 0)
  | 2 ->
    let x = get_int r in
    if r.check then Value.Null else Value.Int x
  | 3 ->
    let x = get_float r in
    if r.check then Value.Null else Value.Float x
  | 4 ->
    let s = get_string r in
    if r.check then Value.Null else Value.Str s
  | tag -> fail "get_value: unknown tag %d" tag

let get_values r =
  let n = get_count r "get_values" in
  if r.check then begin
    for _ = 1 to n do
      ignore (get_value r)
    done;
    [||]
  end
  else Array.init n (fun _ -> get_value r)

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

(* The register runs from [crc]'s un-finalised form, so a CRC can be
   continued across pieces: [crc32_sub (crc32 a) b 0 (String.length b)
   = crc32 (a ^ b)].
   Each step loads its eight bytes as two little-endian 32-bit words
   ([Int32.to_int] sign-extends, so the high word is masked before it
   is split into table indices). *)
let crc32_update_sub crc s pos len =
  let tbl k i = Array.unsafe_get crc_tables ((k lsl 8) lor i) in
  let stop = pos + len in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i + 8 <= stop do
    let p = !i in
    let x = !c lxor (Int32.to_int (String.get_int32_le s p) land 0xFFFFFFFF) in
    let y = Int32.to_int (String.get_int32_le s (p + 4)) in
    c :=
      tbl 7 (x land 0xff)
      lxor tbl 6 ((x lsr 8) land 0xff)
      lxor tbl 5 ((x lsr 16) land 0xff)
      lxor tbl 4 (x lsr 24)
      lxor tbl 3 (y land 0xff)
      lxor tbl 2 ((y lsr 8) land 0xff)
      lxor tbl 1 ((y lsr 16) land 0xff)
      lxor tbl 0 ((y lsr 24) land 0xff);
    i := p + 8
  done;
  for p = !i to stop - 1 do
    c := tbl 0 ((!c lxor Char.code (String.unsafe_get s p)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_sub crc s pos len =
  (* the range check covers every unchecked access in the update *)
  bounds "Codec.crc32" s pos len;
  crc32_update_sub crc s pos len

let crc32 ?(crc = 0) ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  crc32_sub crc s pos len

(* CRC-32 combination, in zlib's allocation-free form: polynomials over
   GF(2) modulo the CRC polynomial, reflected, so x^0 is bit 31.
   [multmodp a b] is a * b mod p. *)
let rec multmodp_go a m b acc =
  if m = 0 || a land (m lor (m - 1)) = 0 then acc
  else
    multmodp_go a (m lsr 1)
      (if b land 1 = 1 then (b lsr 1) lxor 0xEDB88320 else b lsr 1)
      (if a land m <> 0 then acc lxor b else acc)

let multmodp a b = multmodp_go a (1 lsl 31) b 0

(* [x2n k] is x^(2^k) mod p for k in 0..31: [0x40000000] is x^1 and
   each value is the square ([multmodp v v]) of the one before.  A match
   on constants compiles to a static table; a top-level array would be
   allocated when the module is linked, moving the GC's phase in every
   program that links it. *)
let x2n = function
  | 0 -> 0x40000000 | 1 -> 0x20000000 | 2 -> 0x08000000 | 3 -> 0x00800000
  | 4 -> 0x00008000 | 5 -> 0xEDB88320 | 6 -> 0xB1E6B092 | 7 -> 0xA06A2517
  | 8 -> 0xED627DAE | 9 -> 0x88D14467 | 10 -> 0xD7BBFE6A | 11 -> 0xEC447F11
  | 12 -> 0x8E7EA170 | 13 -> 0x6427800E | 14 -> 0x4D47BAE0 | 15 -> 0x09FE548F
  | 16 -> 0x83852D0F | 17 -> 0x30362F1A | 18 -> 0x7B5A9CC3 | 19 -> 0x31FEC169
  | 20 -> 0x9FEC022A | 21 -> 0x6C8DEDC4 | 22 -> 0x15D6874D | 23 -> 0x5FDE7A4E
  | 24 -> 0xBAD90E37 | 25 -> 0x2E4E5EEF | 26 -> 0x4EABA214 | 27 -> 0xA8A472C0
  | 28 -> 0x429A969E | 29 -> 0x148D302A | 30 -> 0xC40BA6D0 | _ -> 0xC4E22C3C

(* acc * x^(n * 2^k) mod p *)
let rec x2nmodp n k acc =
  if n = 0 then acc
  else
    x2nmodp (n lsr 1) (k + 1)
      (if n land 1 = 1 then multmodp (x2n (k land 31)) acc else acc)

let crc32_combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Codec.crc32_combine: negative length";
  (* appending [len2] bytes multiplies crc1 by x^(8 * len2) *)
  multmodp (x2nmodp len2 3 (1 lsl 31)) crc1 lxor crc2
