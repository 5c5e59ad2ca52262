open Strip_txn

type t = {
  src : int;
  seq : int;
  dst : int;
  key : Strip_relational.Value.t list;
  delta : float;
  created_at : float;
  ctx : (int * int) option;
}

type msg =
  | Partial of t
  | Ack of { src : int; floor : int }
  | Floor_request of { src : int }

let encode m =
  let b = Buffer.create 64 in
  (match m with
  | Partial p ->
    Codec.put_u8 b 1;
    Codec.put_int b p.src;
    Codec.put_int b p.seq;
    Codec.put_int b p.dst;
    Codec.put_list b Codec.put_value p.key;
    Codec.put_float b p.delta;
    Codec.put_float b p.created_at;
    (match p.ctx with
    | None -> Codec.put_u8 b 0
    | Some (trace, span) ->
      Codec.put_u8 b 1;
      Codec.put_int b trace;
      Codec.put_int b span)
  | Ack { src; floor } ->
    Codec.put_u8 b 2;
    Codec.put_int b src;
    Codec.put_int b floor
  | Floor_request { src } ->
    Codec.put_u8 b 3;
    Codec.put_int b src);
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  match Codec.get_u8 r with
  | 1 ->
    let src = Codec.get_int r in
    let seq = Codec.get_int r in
    let dst = Codec.get_int r in
    let key = Codec.get_list r Codec.get_value in
    let delta = Codec.get_float r in
    let created_at = Codec.get_float r in
    let ctx =
      match Codec.get_u8 r with
      | 0 -> None
      | 1 ->
        let trace = Codec.get_int r in
        let span = Codec.get_int r in
        Some (trace, span)
      | n -> raise (Codec.Decode_error (Printf.sprintf "partial ctx tag %d" n))
    in
    Partial { src; seq; dst; key; delta; created_at; ctx }
  | 2 ->
    let src = Codec.get_int r in
    let floor = Codec.get_int r in
    Ack { src; floor }
  | 3 -> Floor_request { src = Codec.get_int r }
  | n -> raise (Codec.Decode_error (Printf.sprintf "shard message tag %d" n))
