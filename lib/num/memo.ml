module Telemetry = Slc_obs.Telemetry

type ('k, 'v) shard = { lock : Mutex.t; table : ('k, 'v) Hashtbl.t }

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hits : Telemetry.counter option;
  misses : Telemetry.counter option;
}

(* A power of two, so shard selection is a mask. *)
let shard_count = 16

let create ?hits ?misses () =
  {
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 16 });
    hits;
    misses;
  }

let bump = function Some c -> Telemetry.incr c | None -> ()

let find_or_build m key build =
  let s = m.shards.(Hashtbl.hash key land (shard_count - 1)) in
  match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table key) with
  | Some v ->
    bump m.hits;
    v
  | None ->
    bump m.misses;
    let v = build () in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some first -> first
        | None ->
          Hashtbl.add s.table key v;
          v)

let size m =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.table))
    0 m.shards
