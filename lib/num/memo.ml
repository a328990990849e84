module Telemetry = Slc_obs.Telemetry

type ('k, 'v) shard = { lock : Mutex.t; table : ('k, 'v) Hashtbl.t }

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hits : Telemetry.counter option;
  misses : Telemetry.counter option;
}

(* Shard selection reads the top [shard_bits] of the 30-bit
   [Hashtbl.hash]; each shard's [Hashtbl] picks its bucket from the low
   bits of that same hash.  Taking the shard from the low bits instead
   would give every key of a shard the same low bits, so only
   1/[shard_count] of its buckets would ever be used and every chain
   would be [shard_count] times longer.  The two bit ranges overlap only
   once a shard holds more than 2^(30 - shard_bits) buckets. *)
let shard_bits = 4

let shard_count = 1 lsl shard_bits

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
  let s = m.shards.(Hashtbl.hash key lsr (30 - shard_bits)) in
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

let max_bucket_length m =
  Array.fold_left
    (fun acc s ->
      max acc
        (Mutex.protect s.lock (fun () ->
             (Hashtbl.stats s.table).Hashtbl.max_bucket_length)))
    0 m.shards
