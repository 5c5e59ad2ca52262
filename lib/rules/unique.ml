open Strip_relational
open Strip_txn

let c_unique_hash = Meter.counter "unique_hash"
module Key = struct
  type t = string * Value.t list

  let equal (f1, k1) (f2, k2) =
    String.equal f1 f2
    && List.length k1 = List.length k2
    && List.for_all2 Value.equal k1 k2

  (* a fold, so hashing a key allocates nothing *)
  let hash (f, k) =
    List.fold_left (fun h v -> (h * 31) + Value.hash v) (Hashtbl.hash f) k
end

module Tbl = Hashtbl.Make (Key)

type t = { tbl : Task.t Tbl.t }

let create () = { tbl = Tbl.create 1024 }

let find t ~func ~key =
  Meter.tick_c c_unique_hash;
  match Tbl.find_opt t.tbl (func, key) with
  | None -> None
  | Some task as found ->
    if Task.started task || task.Task.state = Task.Cancelled then begin
      Tbl.remove t.tbl (func, key);
      None
    end
    else found

let register t ~func ~key task =
  Meter.tick_c c_unique_hash;
  Tbl.replace t.tbl (func, key) task

let remove t ~func ~key =
  Meter.tick_c c_unique_hash;
  Tbl.remove t.tbl (func, key)

(* Entries whose task has started (or was cancelled) are purged only lazily
   inside [find], so [Tbl.length] overcounts; report only live batch-queue
   entries — the quantity the overload watermark and the [unique_queued]
   metric mean. *)
let queued t =
  Tbl.fold
    (fun _ task n ->
      if Task.started task || task.Task.state = Task.Cancelled then n
      else n + 1)
    t.tbl 0

(* Live entries in a deterministic order (by task id = creation order),
   for checkpointing.  No meter tick: the checkpoint pays per-row costs
   instead. *)
let entries t =
  Tbl.fold
    (fun key task acc ->
      if Task.started task || task.Task.state = Task.Cancelled then acc
      else (key, task) :: acc)
    t.tbl []
  |> List.sort (fun (_, (a : Task.t)) (_, (b : Task.t)) ->
         compare a.Task.task_id b.Task.task_id)
