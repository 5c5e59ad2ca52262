open Strip_relational

type site =
  | Txn_abort
  | Lock_conflict
  | Deadlock
  | User_fun
  | Crash
  | Partition
  | Bitrot
  | Fsync_lie
  | Disk_full

let site_name = function
  | Txn_abort -> "txn_abort"
  | Lock_conflict -> "lock_conflict"
  | Deadlock -> "deadlock"
  | User_fun -> "user_fun"
  | Crash -> "crash"
  | Partition -> "partition"
  | Bitrot -> "bitrot"
  | Fsync_lie -> "fsync_lie"
  | Disk_full -> "disk_full"

exception Injected of { site : site; detail : string }
exception Crashed of { at : string }
exception Partitioned of { at : string; heal_after_s : float }

let () =
  Printexc.register_printer (function
    | Injected { site; detail } ->
      Some (Printf.sprintf "Fault.Injected(%s, %s)" (site_name site) detail)
    | Crashed { at } -> Some (Printf.sprintf "Fault.Crashed(%s)" at)
    | Partitioned { at; heal_after_s } ->
      Some (Printf.sprintf "Fault.Partitioned(%s, heal %.3fs)" at heal_after_s)
    | _ -> None)

type rates = {
  txn_abort : float;
  lock_conflict : float;
  deadlock : float;
  user_fun : float;
  crash : float;
  partition : float;
  bitrot : float;
  fsync_lie : float;
  disk_full : float;
}

let no_faults =
  {
    txn_abort = 0.0;
    lock_conflict = 0.0;
    deadlock = 0.0;
    user_fun = 0.0;
    crash = 0.0;
    partition = 0.0;
    bitrot = 0.0;
    fsync_lie = 0.0;
    disk_full = 0.0;
  }

type config = {
  seed : int;
  rates : rates;
  partition_heal_s : float;
}

let default_config = { seed = 2025; rates = no_faults; partition_heal_s = 1.0 }

let abort_only ?(seed = 2025) rate =
  { default_config with seed; rates = { no_faults with txn_abort = rate } }

type t = {
  cfg : config;
  rng : Random.State.t;
  mutable n_abort : int;
  mutable n_conflict : int;
  mutable n_deadlock : int;
  mutable n_user : int;
  mutable n_crash : int;
  mutable n_partition : int;
  mutable n_bitrot : int;
  mutable n_fsync_lie : int;
  mutable n_disk_full : int;
  on_inject : unit -> unit;
}

let create ?(on_inject = ignore) cfg =
  {
    cfg;
    on_inject;
    rng = Random.State.make [| cfg.seed; 0x5741; 0x9e37 |];
    n_abort = 0;
    n_conflict = 0;
    n_deadlock = 0;
    n_user = 0;
    n_crash = 0;
    n_partition = 0;
    n_bitrot = 0;
    n_fsync_lie = 0;
    n_disk_full = 0;
  }

let config t = t.cfg

let rate_of t = function
  | Txn_abort -> t.cfg.rates.txn_abort
  | Lock_conflict -> t.cfg.rates.lock_conflict
  | Deadlock -> t.cfg.rates.deadlock
  | User_fun -> t.cfg.rates.user_fun
  | Crash -> t.cfg.rates.crash
  | Partition -> t.cfg.rates.partition
  | Bitrot -> t.cfg.rates.bitrot
  | Fsync_lie -> t.cfg.rates.fsync_lie
  | Disk_full -> t.cfg.rates.disk_full

let active t =
  let r = t.cfg.rates in
  r.txn_abort > 0.0 || r.lock_conflict > 0.0 || r.deadlock > 0.0
  || r.user_fun > 0.0 || r.crash > 0.0 || r.partition > 0.0
  || r.bitrot > 0.0 || r.fsync_lie > 0.0 || r.disk_full > 0.0

let count t site =
  t.on_inject ();
  match site with
  | Txn_abort -> t.n_abort <- t.n_abort + 1
  | Lock_conflict -> t.n_conflict <- t.n_conflict + 1
  | Deadlock -> t.n_deadlock <- t.n_deadlock + 1
  | User_fun -> t.n_user <- t.n_user + 1
  | Crash -> t.n_crash <- t.n_crash + 1
  | Partition -> t.n_partition <- t.n_partition + 1
  | Bitrot -> t.n_bitrot <- t.n_bitrot + 1
  | Fsync_lie -> t.n_fsync_lie <- t.n_fsync_lie + 1
  | Disk_full -> t.n_disk_full <- t.n_disk_full + 1

let injected t = function
  | Txn_abort -> t.n_abort
  | Lock_conflict -> t.n_conflict
  | Deadlock -> t.n_deadlock
  | User_fun -> t.n_user
  | Crash -> t.n_crash
  | Partition -> t.n_partition
  | Bitrot -> t.n_bitrot
  | Fsync_lie -> t.n_fsync_lie
  | Disk_full -> t.n_disk_full

let total_injected t =
  t.n_abort + t.n_conflict + t.n_deadlock + t.n_user + t.n_crash
  + t.n_partition + t.n_bitrot + t.n_fsync_lie + t.n_disk_full

let note t site =
  count t site;
  Meter.tick "fault_injected"

let fire t ~site ~txid ~detail =
  let rate = rate_of t site in
  (* Sites with a zero rate consume no randomness, so enabling one site
     never perturbs another's decision stream. *)
  if rate > 0.0 && Random.State.float t.rng 1.0 < rate then begin
    count t site;
    Meter.tick "fault_injected";
    match site with
    | Lock_conflict ->
      raise (Transaction.Lock_conflict { txid; blockers = []; deadlock = false })
    | Deadlock ->
      raise (Transaction.Lock_conflict { txid; blockers = []; deadlock = true })
    | Txn_abort | User_fun | Bitrot | Fsync_lie | Disk_full ->
      raise (Injected { site; detail })
    | Crash -> raise (Crashed { at = detail })
    | Partition ->
      raise
        (Partitioned { at = detail; heal_after_s = t.cfg.partition_heal_s })
  end
