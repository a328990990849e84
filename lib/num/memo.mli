(** Domain-safe memo tables: the one caching primitive of the library.

    A memo maps keys to values built on first use.  It is sharded
    (16 shards, selected by a mask of the key's [Hashtbl.hash]), so
    concurrent lookups from pool domains or server threads contend on
    independent locks.  The policy, fixed for every memo:

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
