(** Wire format of the cross-shard maintenance protocol.

    Two message kinds travel over the shard-to-shard {!Strip_repl.Link}s
    (as [Blob] payloads): a {e partial} — one emitting shard's weighted
    contribution to a composite row owned by another shard — and the
    owner's {e ack}.  [(src, dst, seq)] identifies a partial for the
    life of the system: [seq] counts [src]'s partials to [dst] from 1
    (stamped at commit by {!Strip_core.Rule_manager}).  The owner dedups
    on [(src, seq)], turning at-least-once shipping into an exactly-once
    merge effect. *)

type t = {
  src : int;  (** emitting shard *)
  seq : int;  (** emitter's ship sequence number towards [dst], from 1 *)
  dst : int;  (** owning shard *)
  key : Strip_relational.Value.t list;  (** composite row key *)
  delta : float;  (** weighted contribution to the composite value *)
  created_at : float;  (** emitting commit's virtual time *)
  ctx : (int * int) option;
      (** emitting transaction's (trace, span), when tracing *)
}

type msg =
  | Partial of t
  | Ack of { src : int; seq : int }
      (** owner → emitter receipt for partial [(src, seq)]; the emitter
          retires its unacked entry with that [seq] to the acking shard *)

val encode : msg -> string

val decode : string -> msg
(** @raise Strip_txn.Codec.Decode_error on truncation or unknown tag. *)
