(** Two-phase lock manager.

    Shared/exclusive locks at table and record granularity, with upgrade
    (S to X by the sole shared holder) and wait-for-graph deadlock
    detection.  Task bodies really execute one at a time, but under the
    multi-server engine their simulated service windows overlap: a
    committing transaction's locks are released {e deferred} — kept in
    place as zombie holders until the engine's completion event at the
    simulated finish instant flushes them — so later-dispatched tasks
    whose windows overlap a conflicting holder observe [Blocked] and park
    on the engine's wait queue (woken FIFO by task id).

    Successful acquisitions tick ["get_lock"]; releases tick
    ["release_lock"] — the two Table-1 costs around every cursor update.
    A deferred release ticks at commit time (inside the task body's
    metering window, where an immediate release would); the later flush
    ticks nothing, so service-time charges are identical with and without
    deferral. *)

type mode = S | X

type resource =
  | Rel of string  (** whole table *)
  | Rec of string * int  (** (table, record id) *)

type outcome =
  | Granted
  | Blocked of int list
      (** conflicting owners; the request was queued as a waiter *)
  | Deadlock of int list
      (** granting would close a wait-for cycle through these owners;
          the request was not queued *)

type t

val create : unit -> t

val acquire : t -> owner:int -> resource -> mode -> outcome
(** Re-acquiring a held lock (same or weaker mode) is a no-op granting
    immediately and ticking nothing. *)

type grant =
  | Held  (** already held in this or a stronger mode: a no-op *)
  | Acquired  (** granted now, fresh or as an upgrade *)
  | Refused of outcome  (** [Blocked] or [Deadlock], as {!acquire} *)

val request : t -> owner:int -> resource -> mode -> grant
(** {!acquire} that also tells a no-op from a grant, in one probe of the
    lock table: a caller that acts on the first exclusive grant of a
    resource needs no {!holds} beforehand. *)

val release_all : t -> owner:int -> unit
(** Release every lock held by [owner] and drop its waiter entries, then
    promote any waiters that can now run (their next [acquire] will be
    granted; promotion here just clears the queue slot).  Inside a
    {!begin_defer} window the release is deferred: the ["release_lock"]
    ticks are charged immediately but the holder entries stay as zombies
    until {!flush}. *)

val release_now : t -> owner:int -> unit
(** Like {!release_all} but always physical, even inside a defer window —
    the abort path: an aborted transaction undid its effects for real, so
    its locks must not linger as zombies. *)

(** {1 Deferred release (multi-server simulation)} *)

val begin_defer : t -> unit
(** Start a defer window: subsequent {!release_all} calls keep their
    holder entries in place and record the owner. *)

val end_defer : t -> int list
(** Close the window and return the owners whose release was deferred
    inside it, oldest first.  The caller schedules a {!flush} for each at
    the simulated completion instant. *)

val flush : t -> owner:int -> unit
(** Physically remove a deferred owner's zombie holder entries without
    ticking (the release was already charged at commit). *)

val holds : t -> owner:int -> resource -> mode option
(** Strongest mode held, if any. *)

val holders : t -> resource -> (int * mode) list

val waiters : t -> resource -> (int * mode) list

