(** Domain-safe memo tables: the one caching primitive of the library.

    A memo maps keys to values built on first use.  It is sharded
    (16 shards), so concurrent lookups from pool domains or server
    threads contend on independent locks.  A key's shard is the top
    four bits of its 30-bit [Hashtbl.hash]; the shard's own [Hashtbl]
    picks a bucket from the low bits of that same hash, so the two
    choices use disjoint bits and every bucket of every shard is
    reachable.  (Choosing the shard by a mask of the low bits would
    leave 15 of every 16 buckets of a shard empty and make each chain
    16 times longer.)  The policy, fixed for every memo:

    - a lookup holds its shard's lock only around the table access;
      [build] always runs outside every lock, so a build may run
      simulations, submit pool work or consult other memos;
    - concurrent misses on one key may each build; the first value
      published wins, and every caller — including the losing
      builders — returns that one value.  Builds must therefore be
      deterministic (a losing build is simply discarded);
    - an exception raised by [build] is never cached: it reaches the
      caller and the next lookup of that key builds again.

    No caller ever waits for another caller's build (there is no
    single-flight), so a memo can never park a pool task behind work
    that itself needs the pool. *)

type ('k, 'v) t

val create :
  ?hits:Slc_obs.Telemetry.counter ->
  ?misses:Slc_obs.Telemetry.counter ->
  unit ->
  ('k, 'v) t
(** An empty memo.  Keys are compared structurally.  [?hits] and
    [?misses] are bumped once per lookup that finds, respectively does
    not find, a published value. *)

val find_or_build : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_build m key build] is the value published for [key],
    running [build ()] (outside any lock) and publishing its result
    first if there is none yet. *)

val size : ('k, 'v) t -> int
(** Number of distinct published keys, summed over the shards. *)

val max_bucket_length : ('k, 'v) t -> int
(** Length of the longest bucket chain in any shard's table
    ([Hashtbl.stats]' [max_bucket_length], maximum over the shards).
    With well-spread keys it stays a small constant however many keys
    the memo holds; a value that grows with [size] means lookups have
    degraded towards list scans. *)
