(** One-dimensional root finding and minimisation.

    Used by the evolution-time optimiser: the generic localized system
    asks "what is the smallest [T] for which the component is feasible?",
    answered by bisecting the feasibility indicator over [T].

    Every routine reports whether it actually reached its tolerance:
    hitting [max_iterations] leaves [converged = false] so callers can no
    longer mistake the last iterate for an answer. *)

type root_result = {
  root : float;
  converged : bool;  (** final bracket width within [tol] *)
  iterations : int;
}

type min_result = {
  argmin : float;
  minimum : float;  (** [f argmin] *)
  converged : bool;  (** final bracket width within [tol] *)
  iterations : int;
}

val bisect :
  ?tol:float ->
  ?max_iterations:int ->
  f:(float -> float) ->
  lo:float ->
  hi:float ->
  unit ->
  root_result
(** Root of [f] on [\[lo, hi\]]; requires a sign change ([Invalid_argument]
    otherwise).  [root] is the midpoint of the final bracket. *)

val bisect_predicate :
  ?tol:float ->
  ?max_iterations:int ->
  f:(float -> bool) ->
  lo:float ->
  hi:float ->
  unit ->
  root_result
(** Smallest [x] in [\[lo, hi\]] with [f x = true], assuming [f] is
    monotone (false then true).  Requires [f hi = true]; if [f lo] already
    holds, returns [lo] with [converged = true].  [root] is the smallest
    bracket endpoint known to satisfy [f]. *)

val golden_min :
  ?tol:float ->
  ?max_iterations:int ->
  f:(float -> float) ->
  lo:float ->
  hi:float ->
  unit ->
  min_result
(** Golden-section minimisation of a unimodal [f].  [converged] means
    only that the bracket narrowed to [tol] times [max 1 |b|], [b] its
    upper end, within [max_iterations]; it says nothing of how close
    [argmin] is to the true minimiser.  On a cost that is flat to
    rounding near its minimum the comparisons [f c < f d] are noise, the
    bracket can close around the wrong point, and [argmin] can lie far
    outside [tol] of the minimiser while [converged] is [true]. *)
