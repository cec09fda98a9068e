(** Deterministic work pool over stdlib domains.

    One lazily-created, process-global pool shared by the whole
    compiler.  Every primitive distributes an index range [0, total)
    over the pool and collects results {e by index}, so a parallel run
    produces output bitwise-identical to the sequential loop: each
    element is computed by exactly the same pure-float code, only the
    schedule changes.  With [domains <= 1] (or inside a pool task) no
    domain is ever spawned and the sequential loop runs directly —
    [QTURBO_DOMAINS=1] is exactly the pre-parallelism compiler.

    Exceptions: a failing task stops the job from claiming further
    work, and the exception raised to the caller is the one from the
    smallest failing index — the same exception a sequential loop
    would have raised first. *)

val default_domains : unit -> int
(** [QTURBO_DOMAINS] when set to a positive integer (any other value
    reads as [1]); otherwise [Domain.recommended_domain_count () - 1],
    floored at 1. *)

val in_worker : unit -> bool
(** True while executing inside a pool task.  Nested parallel calls
    detect this and run sequentially instead of deadlocking. *)

val parallel_for :
  ?domains:int ->
  ?chunk:int ->
  ?guard:(unit -> unit) ->
  total:int ->
  (int -> unit) ->
  unit
(** [parallel_for ~total f] runs [f i] for every [i] in [0, total).
    [f] must write to disjoint per-index locations (or be pure).
    [chunk] is the number of consecutive indices claimed at a time
    (default [total / (4·domains)], floored at 1); pass [~chunk:1]
    when task costs are very uneven.

    [guard] runs before each index on the claiming domain; it is the
    deadline/cancellation hook.  A raising guard stops the job from
    claiming further ranges and its exception propagates to the caller
    under the usual smallest-failing-index rule, so a guarded parallel
    run fails exactly like the guarded sequential loop. *)

val parallel_map :
  ?domains:int -> ?chunk:int -> ?guard:(unit -> unit) ->
  ('a -> 'b) -> 'a array -> 'b array
val parallel_map_list :
  ?domains:int -> ?chunk:int -> ?guard:(unit -> unit) ->
  ('a -> 'b) -> 'a list -> 'b list

val parallel_reduce :
  ?domains:int ->
  ?chunk:int ->
  ?guard:(unit -> unit) ->
  map:('a -> 'b) ->
  fold:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Maps in parallel, then folds the mapped results sequentially in
    index order — the reduction order (and thus any float rounding)
    is identical to [Array.fold_left fold init (Array.map map arr)]. *)

val stop_pool : unit -> unit
(** Join all pool domains.  Registered via [at_exit] on first spawn;
    exposed for tests.  After this, every call runs sequentially. *)
