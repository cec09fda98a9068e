(** Localized mixed equation systems (paper §4.2–§5.1).

    Each runtime-dynamic locality component is classified by structure
    and solved with the cheapest applicable method:

    {ul
    {- [Linear]: every channel is a linear drive of one shared
       time-critical variable (detunings; all Heisenberg channels).
       Closed form.}
    {- [Polar]: cos/sin channel pairs over one amplitude and one phase
       variable (Rabi drives).  Closed form.}
    {- [Const]: no variables at all; the channel either matches or it
       doesn't.}
    {- [Generic]: anything else — the paper's "Case 3" and any exotic
       AAIS.  Feasibility is decided by bounded Levenberg–Marquardt and
       the minimal time found by bisection over [T].}}

    Components that involve runtime-fixed variables (atom positions) are
    {!Fixed_solver}'s, once [T_sim] is known; the caller routes them
    there and never prepares them here.

    Each case yields the component's {e shortest feasible evolution
    time} given the variable bounds; the compiler takes the maximum over
    components as [T_sim] (the bottleneck instruction then runs at full
    amplitude, paper §5.1). *)

type generic = {
  var_ids : int array;  (** the component's variables, in order *)
  transform : Qturbo_optim.Bounds.transform;  (** their bound transform *)
  x0 : float array;  (** their initial values, in internal coordinates *)
}

(** A component's classification together with everything its solve
    reads of the variables. *)
type case =
  | Const of (int * float) list  (** [(cid, value)] of each closed channel *)
  | Linear of {
      var : int;
      slopes : (int * float) list;  (** [(cid, slope)] per channel *)
      bound : Qturbo_optim.Bounds.bound;  (** [var]'s *)
    }
  | Polar of {
      amp : int;
      phase : int;
      cos_channels : (int * float) list;  (** [(cid, scale)] *)
      sin_channels : (int * float) list;
      amp_bound : Qturbo_optim.Bounds.bound;
      phase_bound : Qturbo_optim.Bounds.bound;
    }
  | Generic of generic

type solution = {
  assignments : (int * float) list;  (** [(variable id, value)] *)
  eps2 : float;  (** L1 residual against the component's α targets *)
}

type prepared
(** A component bundled with its {!case} and its channels' kernels —
    computed once, reused across every [T] probe, constraint iteration
    and refinement pass.  Self-contained: it keeps no reference to the
    [vars] and [channels] it was prepared from, so it serves any device
    whose key equals theirs.  Immutable, so safe to share across pool
    domains. *)

val prepare :
  ?generic:bool ->
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  Locality.component ->
  prepared
(** Classify and prepare a runtime-dynamic component in one step.
    [~generic:true] (the [generic_local_solver] ablation; default
    [false]) ignores the linear and polar patterns, so every component
    with variables takes the generic path; a component without
    variables is [Const] either way. *)

val case : prepared -> case
val component : prepared -> Locality.component

val min_time :
  sup:Qturbo_resilience.Supervisor.t ->
  alpha:float array ->
  prepared ->
  float * Qturbo_resilience.Failure.t list
(** Shortest feasible [T_sim] for this component alone: [0.] when the
    component imposes no lower bound (all-zero targets), [infinity] when
    infeasible at any time.  The generic path also reports a non-fatal
    [Non_convergence] record when its [T] bisection (or bracket
    doubling) stops before reaching its tolerance, and
    [Deadline_expired] when the supervision deadline has already
    passed. *)

val solve :
  sup:Qturbo_resilience.Supervisor.t ->
  alpha:float array ->
  t_sim:float ->
  prepared ->
  solution * Qturbo_resilience.Failure.t list
(** Solve the component's variables given the global [T_sim].  Values
    are clamped into their bounds; the clamping error shows up in
    [eps2].  The generic LM path runs under the resilience escalation
    ladder (site ["local-solve"], the component's locality id); the
    closed forms are direct arithmetic and bypass it.  On a hard solver
    failure the returned solution keeps the initial iterate (clamped
    into bounds) and the failure list says why.  Raises
    [Invalid_argument] when [t_sim <= 0]. *)
