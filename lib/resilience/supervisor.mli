(** Per-component solve supervisor: deadlines, NaN guards, and a
    deterministic escalation ladder.

    Wraps a nonlinear least-squares solve in up to four stages, run in
    order until one produces a finite-cost iterate:

    + {b lm} — Levenberg–Marquardt from the caller's initial point;
    + {b lm-retry} — LM restarted from a jitter-perturbed initial point,
      with the jitter drawn from a stream seeded by the (site, component)
      pair, so parallel compiles stay bitwise-identical;
    + {b nelder-mead} — derivative-free simplex on the summed-squares
      cost (skipped above 40 dimensions, where a simplex is hopeless);
    + {b multistart} — bounded multistart LM (4 starts, same seeded
      stream; samples inside [bounds] when given, else a box around the
      initial point).

    Escalation happens only on {e hard} failure — non-finite cost,
    deadline expiry, an injected fault, or an exception out of the
    residual/Jacobian.  A merely-unconverged finite iterate is accepted
    as-is, so a compile that never trips a fault runs exactly the solver
    calls of the first stage.  Every stage failure is recorded as a typed
    {!Failure.t}; when a later stage succeeds those records are
    non-fatal history, and when every stage fails the last record is
    marked fatal and the best iterate seen is still returned. *)

exception Expired
(** Raised by {!pool_guard} (and usable by callers) to abandon a
    parallel sweep when the deadline passes.  Never escapes {!solve}. *)

type t
(** Supervision context: optional absolute deadline, fault-injection
    spec, best-effort flag.  Immutable and domain-safe. *)

val none : t
(** No deadline, no faults, strict mode — the context of one-off probes
    outside a compile. *)

val make :
  ?deadline_seconds:float ->
  ?faults:Fault.spec ->
  ?best_effort:bool ->
  unit ->
  t
(** [deadline_seconds] is relative to now; [faults] defaults to
    {!Fault.of_env} (the [QTURBO_FAULTS] variable). *)

val best_effort : t -> bool
val faults : t -> Fault.spec
val deadline : t -> float option

val wall_expired : t -> bool
(** The wall-clock deadline (if any) has passed. *)

val site_expired : t -> site:string -> component:int -> bool
(** {!wall_expired}, or a [deadline] fault fires at this site. *)

val pool_guard : t -> site:string -> unit -> unit
(** Pre-index guard for [Qturbo_par.Pool.parallel_*]: raises {!Expired}
    when {!site_expired} (component [-1], so only unfiltered clauses
    match).  This is how a deadline propagates through the pool: the
    guard stops the job from claiming further ranges and the caller
    catches {!Expired} and degrades. *)

val classify_report : Qturbo_optim.Objective.report -> Failure.class_ option
(** [None] for a finite cost; otherwise the failure class its stop
    reason names. *)

type outcome = {
  report : Qturbo_optim.Objective.report;
      (** the winning stage's report; on total failure, the best iterate
          seen (possibly with infinite cost and the caller's [x0]) *)
  stage : string;
      (** name of the stage that produced [report]; [""] when every
          stage failed *)
  failures : Failure.t list;
      (** one record per failed stage, in execution order; all non-fatal
          when [stage <> ""], last one fatal otherwise *)
}

val recovered : outcome -> bool
(** A stage after the first succeeded — the ladder earned its keep. *)

val failed : outcome -> bool
(** No stage produced a usable iterate. *)

val solve :
  t ->
  site:string ->
  component:int ->
  ?options:Qturbo_optim.Levenberg_marquardt.options ->
  ?jacobian:Qturbo_optim.Objective.jacobian_fn ->
  ?bounds:Qturbo_optim.Bounds.bound array ->
  Qturbo_optim.Objective.residual_fn ->
  float array ->
  outcome
(** Run the ladder.  [site] is the pipeline call site (["local-solve"],
    ["fixed-solve"], …) used for fault matching and failure records;
    [component] the locality component id (or segment index).  [options]
    seeds every LM stage (the context deadline is merged in, taking the
    earlier of the two); [bounds] is used for jitter clamping and
    multistart sampling only — the solve itself is unconstrained, as
    for the raw solvers.  Never raises: faults, NaNs, deadlines and
    residual exceptions all land in [failures]. *)
