(** Rules maintaining [option_prices] (paper Figure 8 and §5.2).

    Unlike composites, option prices cannot be maintained incrementally:
    every change reprices through Black-Scholes.  Batching pays only when
    the same stock is re-quoted inside the delay window — then only its
    {e last} price needs repricing (temporal locality).

    Variants (the Figures 12-14 curves):
    - {!Non_unique} — [do_options1]/[compute_options1]: reprice every
      affected option on every change, row by row;
    - {!Unique_coarse} — one queued transaction for the whole view; the
      user function dedupes (option, last price) in user code;
    - {!Unique_on_symbol} — batches per underlying stock; one volatility
      lookup and a cheap last-value dedupe per batch;
    - {!Unique_on_option} — batches per option symbol.  The paper found
      the resulting task population unmanageable and dropped it from the
      graphs; it is implemented here and excluded the same way. *)

type variant = Non_unique | Unique_coarse | Unique_on_symbol | Unique_on_option

val variant_name : variant -> string

val all_variants : variant list
(** The three the paper plots (no {!Unique_on_option}). *)

val rule_text : variant -> delay:float -> string

val install :
  Strip_core.Strip_db.t -> Pta_tables.handles -> variant -> delay:float -> unit

val recompute_from_scratch : Pta_tables.handles -> (string * float) list
(** Ground truth: every option repriced from current stock prices
    (unmetered). *)

val maintained : Pta_tables.handles -> (string * float) list

val recompute_from_scratch_sharded :
  Pta_tables.handles array -> (string * float) list
(** Ground truth over a sharded deployment: every shard's options
    repriced from the union of the shards' stock tables, sorted;
    {!recompute_from_scratch} is the one-shard case. *)

val maintained_sharded : Pta_tables.handles array -> (string * float) list
(** Union of every shard's materialized [option_prices], sorted. *)
