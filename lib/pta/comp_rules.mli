(** Rules maintaining [comp_prices] (paper Figures 3, 6, 7).

    Four variants, one per curve of Figures 9-11:

    - {!Non_unique} — [do_comps1]: one action transaction per triggering
      transaction; [compute_comps1] walks [matches] row by row;
    - {!Unique_coarse} — [do_comps2]: one queued transaction for the whole
      view; [compute_comps2] groups the batched changes by composite in
      user code before applying them;
    - {!Unique_on_symbol} — batches per changed stock symbol; the user
      function still groups by composite in user code;
    - {!Unique_on_comp} — [do_comps3]: batches per composite;
      [compute_comps3] folds its single composite's changes in one pass.

    All variants share the condition query of Figure 3 (binding [matches])
    and are installed with their user function registered. *)

type variant = Non_unique | Unique_coarse | Unique_on_symbol | Unique_on_comp

val variant_name : variant -> string
val all_variants : variant list

val rule_text : variant -> delay:float -> string
(** The Figure-2-syntax source of the rule (delay ignored for
    {!Non_unique}, which releases at commit). *)

val install :
  Strip_core.Strip_db.t -> Pta_tables.handles -> variant -> delay:float -> unit
(** Register the user function and create the rule. *)

val install_routed :
  Strip_core.Strip_db.t ->
  Pta_tables.handles ->
  sid:int ->
  owner:(string -> int) ->
  variant ->
  delay:float ->
  unit
(** Sharded install for shard [sid]: the same rule body as {!install},
    except each composite's total change is applied locally when
    [owner comp = sid] and emitted as a cross-shard partial delta
    ({!Strip_core.Rule_manager.emit_partial}) otherwise.  Partials are
    stamped, WAL-logged and shipped by the enclosing commit. *)

val apply_partial :
  Pta_tables.handles ->
  Strip_txn.Transaction.t ->
  key:Strip_relational.Value.t list ->
  delta:float ->
  unit
(** Owner-side apply of a merged cross-shard delta: fold [delta] into the
    [comp_prices] row keyed by [key = [comp]].
    @raise Invalid_argument on any other key shape. *)

val recompute_from_scratch : Pta_tables.handles -> (string * float) list
(** Ground truth: every composite's price recomputed from current stock
    prices (unmetered), for correctness checks.  The one-shard case of
    {!recompute_from_scratch_sharded}. *)

val maintained : Pta_tables.handles -> (string * float) list
(** Current contents of the materialized [comp_prices]. *)

val recompute_from_scratch_sharded :
  Pta_tables.handles array -> (string * float) list
(** Ground truth over a sharded deployment: stock prices and membership
    rows are unioned across all shards before totalling (unmetered). *)

val maintained_sharded : Pta_tables.handles array -> (string * float) list
(** Union of every shard's materialized [comp_prices] partition, sorted —
    comparable to {!recompute_from_scratch_sharded}. *)
