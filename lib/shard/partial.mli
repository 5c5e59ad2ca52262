(** Wire format of the cross-shard maintenance protocol.

    Three message kinds travel over the shard-to-shard
    {!Strip_repl.Link}s (as [Blob] payloads): a {e partial} — one
    emitting shard's weighted contribution to a composite row owned by
    another shard — the owner's cumulative {e ack}, and a restarted
    emitter's {e floor request}.  [(src, dst, seq)] identifies a partial
    for the life of the system: [seq] counts [src]'s partials to [dst]
    from 1 (stamped at commit by {!Strip_core.Rule_manager}).  The owner
    dedups on [(src, seq)], turning at-least-once shipping into an
    exactly-once merge effect. *)

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
  | Ack of { src : int; floor : int }
      (** owner → emitter: every partial [src] sent this owner with a seq
          up to [floor] is merged and logged.  The emitter retires all of
          them.  The floor only grows, so a duplicated, reordered or stale
          ack retires nothing it should not. *)
  | Floor_request of { src : int }
      (** restarted emitter [src] → owner: answer with an [Ack] of your
          floor for [src], so that [src] ships only what lies above it *)

val encode : msg -> string

val decode : string -> msg
(** @raise Strip_txn.Codec.Decode_error on truncation or unknown tag. *)
