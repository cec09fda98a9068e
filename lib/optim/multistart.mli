(** Multistart search: run a solver from several random initial points,
    one after another, and keep the best result.  It is the last rung of
    the resilience supervisor's escalation ladder, which runs it below
    {!Levenberg_marquardt.cg_threshold} unknowns, inside the
    per-component pool task that already holds a domain. *)

type run = {
  report : Objective.report;
  start_index : int;  (** the start that produced [report], from 0 *)
}

val search :
  rng:Qturbo_util.Rng.t ->
  starts:int ->
  sample:(Qturbo_util.Rng.t -> float array) ->
  solve:(float array -> Objective.report) ->
  accept:(Objective.report -> bool) ->
  run option
(** [search ~rng ~starts ~sample ~solve ~accept] solves from up to
    [starts] random initial points, in start order, and returns the
    winning run.

    Start [i] samples its initial point from the [i]-th stream
    {!Qturbo_util.Rng.split} off [rng], so its point does not depend on
    what the earlier starts did.

    The search stops at the first run [accept] fires on and returns it,
    whatever the costs of the other starts.  Otherwise every
    start runs and the winner is the best run by [(cost, start_index)]:
    strictly smaller finite cost wins, ties keep the earlier start.
    [None] when every start diverged to a non-finite cost.

    A start whose [solve] raises is contained per-start: it drops out of
    the candidate set (as if it had returned an infinite cost) and the
    remaining starts still determine the winner.  When every start
    raises or diverges the result is [None] — never an escaped
    exception — so callers classify the failure instead of crashing. *)

val sample_box :
  Bounds.bound array -> fallback:float -> Qturbo_util.Rng.t -> float array
(** Uniform sample inside a box; infinite sides are replaced by
    [±fallback]. *)
