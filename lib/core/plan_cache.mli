(** Bounded, mutex-guarded LRU cache keyed by compact strings.

    Backs the {!Compile_plan} plan cache and the service's
    backend-instance cache.  Entries must be
    immutable (plans are), because a cached value may be shared by
    concurrent compiles running on different pool domains.  All
    operations are thread-safe; the critical sections are tiny (a
    hash-table probe), so contention is negligible next to a solve.

    Counters come at two granularities: process-global per cache
    ({!stats}) and per key ({!key_stats}/{!per_key}), both surfaced in
    [qturbo compile --json] and the sweep reports — per-key hit rates
    are what makes the LRU capacities an observable sizing decision
    rather than a guess.  Per-key counters survive eviction of the
    entry (they describe the key's whole history) and are only dropped
    by {!clear}, which resets everything (tests and benchmarks start
    from a cold, zero-counter state). *)

type stats = {
  hits : int;
  misses : int;  (** {!find} calls that returned [None] *)
  evictions : int;
  discarded : int;
      (** {!add} calls that found the key already resident and dropped
          the freshly built value (concurrent double-builds) *)
  size : int;  (** resident entries *)
  capacity : int;
}

type key_stats = {
  key_hits : int;
  key_misses : int;
  key_evictions : int;
  key_discarded : int;
}

val zero_key_stats : key_stats

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : ?accept:('a -> bool) -> 'a t -> string -> 'a option
(** Counts a hit (and refreshes the entry's age) or a miss.  A resident
    value is served only if [accept] (default: any) holds for it;
    otherwise the lookup is a miss.  Keys that are digests use [accept]
    to confirm the resident is exactly the requested structure, so a
    digest collision can cost a rebuild but never serve a wrong
    value.  [accept] runs under the cache lock and must not call back
    into the cache. *)

val add : ?accept:('a -> bool) -> 'a t -> string -> 'a -> unit
(** Insert, evicting the least-recently-used entry at capacity.  If the
    key is already resident and [accept] holds for the resident value,
    it is kept — values for equal structures are interchangeable by
    construction — and the drop is counted as [discarded]; a resident
    that [accept] refuses is replaced and counted as an eviction. *)

val clear : 'a t -> unit
(** Drop every entry, every per-key cell, and zero the counters. *)

val clear_all : unit -> unit
(** {!clear} every cache {!create} has ever made, in this library or
    above it: what a fresh process would start from. *)

val stats : 'a t -> stats

val key_stats : 'a t -> string -> key_stats
(** Counters for one key; {!zero_key_stats} for a never-seen key. *)

val per_key : 'a t -> (string * key_stats) list
(** Every key ever touched (hit, missed, evicted or discarded), with
    its counters, sorted by key for deterministic output. *)
