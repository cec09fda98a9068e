(** Localized mixed equation systems (paper §4.2–§5.1).

    Each locality component is classified by structure and solved with the
    cheapest applicable method:

    {ul
    {- [Linear]: every channel is a linear drive of one shared
       time-critical variable (detunings; all Heisenberg channels).
       Closed form.}
    {- [Polar]: cos/sin channel pairs over one amplitude and one phase
       variable (Rabi drives).  Closed form.}
    {- [Fixed]: the component involves runtime-fixed variables (atom
       positions); deferred to {!Fixed_solver} once [T_sim] is known.}
    {- [Const]: no variables at all; the channel either matches or it
       doesn't.}
    {- [Generic]: anything else — the paper's "Case 3" and any exotic
       AAIS.  Feasibility is decided by bounded Levenberg–Marquardt and
       the minimal time found by bisection over [T].}}

    Each classification yields the component's {e shortest feasible
    evolution time} given the variable bounds; the compiler takes the
    maximum over components as [T_sim] (the bottleneck instruction then
    runs at full amplitude, paper §5.1). *)

type classification =
  | Const_channels
  | Linear of { var : int; slopes : (int * float) list }
      (** [(cid, slope)] per channel *)
  | Polar of {
      amp : int;
      phase : int;
      cos_channels : (int * float) list;  (** [(cid, scale)] *)
      sin_channels : (int * float) list;
    }
  | Fixed_vars
  | Generic

val classify :
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  Locality.component ->
  classification

type solution = {
  assignments : (int * float) list;  (** [(variable id, value)] *)
  eps2 : float;  (** L1 residual against the component's α targets *)
}

type prepared
(** A component bundled with everything derivable from its
    classification alone (its channels' kernels, closed-expression
    values, the bounds the closed forms clamp into, the generic path's
    bound transform and starting point) — computed once, reused across
    every [T] probe, constraint iteration and refinement pass.
    Self-contained: it keeps no reference to the [vars] and [channels]
    it was prepared from, so it serves any device whose key equals
    theirs.  Immutable, so safe to share across pool domains. *)

val prepare :
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  Locality.component ->
  classification ->
  prepared

val classification_of : prepared -> classification

val solve_supervised :
  sup:Qturbo_resilience.Supervisor.t ->
  alpha:float array ->
  t_sim:float ->
  prepared ->
  solution * Qturbo_resilience.Failure.t list
(** {!solve_at} against a prepared component, with the generic LM path
    run under the resilience escalation ladder (site ["local-solve"],
    the component's locality id).  Closed-form classifications are
    direct arithmetic and bypass the ladder.  On a hard solver failure
    the returned solution keeps the initial iterate (clamped into
    bounds) and the failure list says why. *)

val min_time_supervised :
  sup:Qturbo_resilience.Supervisor.t ->
  alpha:float array ->
  prepared ->
  float * Qturbo_resilience.Failure.t list
(** {!min_time} against a prepared component, additionally reporting a
    non-fatal [Non_convergence] record when the generic path's [T]
    bisection (or bracket doubling) stops before reaching its
    tolerance, and [Deadline_expired] when the supervision deadline has
    already passed. *)

val min_time :
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  alpha:float array ->
  Locality.component ->
  classification ->
  float
(** Shortest feasible [T_sim] for this component alone: [0.] when the
    component imposes no lower bound (all-zero targets, or runtime-fixed
    components whose feasibility is policed later), [infinity] when
    infeasible at any time.  A one-off probe: prepares the component and
    runs {!min_time_supervised} under {!Qturbo_resilience.Supervisor.none}. *)

val solve_at :
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  alpha:float array ->
  t_sim:float ->
  Locality.component ->
  classification ->
  solution
(** Solve the component's variables given the global [T_sim].  Values are
    clamped into their bounds; the clamping error shows up in [eps2].
    [Fixed_vars] components raise [Invalid_argument] (use
    {!Fixed_solver}).  A one-off probe like {!min_time}. *)
