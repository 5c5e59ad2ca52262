(* The five benchmark workloads.  Each one is a full [Experiment.config]
   built from a seed, so the program under test receives only generated
   inputs; each isolates a different set of layers (see README.md for
   the layer -> workload table). *)

open Strip_pta
module E = Experiment

type topology = Plain | Durable | Replicated | Sharded

type t = {
  name : string;
  topology : topology;
  scale : float;  (** feed and table scale of a timed trial *)
  base : E.config;  (** at scale 1, seed not yet applied *)
}

let comp v delay = E.default_config (E.Comp_view v) ~delay
let symbol = comp Comp_rules.Unique_on_symbol 1.0

(* Scales are chosen so that one run pass takes 2-3 s on a 2-core
   machine: a 25 s benchmark run then fits 6-12 timed trials.  The
   reasons for each workload are in BENCHMARK.json. *)
let all =
  [
    (* Fan-in: merges dominate through the unique queue. *)
    { name = "comp-fanin"; topology = Plain; scale = 0.5; base = comp Comp_rules.Unique_on_comp 1.0 };
    (* Fan-out: Black-Scholes and the options index join; no merges. *)
    {
      name = "option-fanout";
      topology = Plain;
      scale = 0.6;
      base = E.default_config (E.Option_view Option_rules.Non_unique) ~delay:0.0;
    };
    { name = "comp-durable"; topology = Durable; scale = 0.2; base = symbol };
    { name = "comp-replicated"; topology = Replicated; scale = 0.07; base = symbol };
    { name = "comp-sharded"; topology = Sharded; scale = 0.2; base = symbol };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* What a result file records about a workload, so that results taken
   with different workload definitions are never compared. *)
let definition w ~scale =
  Printf.sprintf "%s delay=%g scale=%g topology=%s" (E.label_of w.base.E.rule) w.base.E.delay
    scale
    (match w.topology with
    | Plain -> "plain"
    | Durable -> "durable"
    | Replicated -> "replicated"
    | Sharded -> "sharded")

(* The experiment a trial of [w] runs: the seed drives both the quote
   feed and the table population; topology-specific settings are
   applied after scaling so that they follow the scaled feed. *)
let config w ~seed ~scale =
  let cfg = E.quick w.base scale in
  let cfg =
    {
      cfg with
      E.feed = { cfg.E.feed with Strip_market.Feed.seed };
      sizes = { cfg.E.sizes with Pta_tables.seed };
    }
  in
  match w.topology with
  | Plain -> cfg
  | Durable ->
    let half = cfg.E.feed.Strip_market.Feed.duration /. 2.0 in
    {
      cfg with
      E.recovery = Some { E.default_recovery with E.crash_at = Some half };
    }
  | Replicated ->
    {
      cfg with
      E.repl =
        Some
          {
            E.default_repl with
            E.replicas = 2;
            read_policy = Strip_repl.Cluster.Any;
            read_rate = 50.0;
            read_cost_s = 0.002;
          };
      storage = Some E.default_storage;
    }
  | Sharded -> { cfg with E.shard = Some (E.default_shard ~shards:4) }
