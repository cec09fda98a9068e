(** Staged compile pipeline: reusable plan artifacts + a structural cache.

    The compiler's work splits cleanly into a {e structural front-end}
    that depends only on the AAIS and the target's shape (which Pauli
    terms it touches) — term indexing, linear-system skeleton, locality
    decomposition, per-component classification, compiled expression
    kernels, prepared solver contexts — and a {e numeric back-end} that
    additionally consumes the target coefficients and the evolution time.
    {!build} produces the former as an immutable, coefficient-free
    {!t}; {!solve} runs the latter against a plan.  Parameter sweeps,
    batch compiles and the segments of a time-dependent compile all
    reuse one plan, paying the front-end once.

    A plan's structure is the AAIS rendering ({!Shape.of_aais}: name,
    variables, channel expressions/hints/effects, the device builder's
    constraint fingerprint and its cutoff summary) plus the target's
    support and the classification-affecting options.  Plans are cached
    process-wide in a bounded LRU ({!Plan_cache}), and persisted by the
    optional store, under one compact key ({!plan_key}: the solver
    flag, the rendering's memoized MD5 and the support's MD5).  A
    resident plan is served only after exact equality of its flag,
    rendering and support with the request's, and a store entry only
    after its support and skeleton equal what the requester's channels
    build — digests pick the candidate, equality decides, so no
    collision can serve a wrong plan.  Equal structures produce
    interchangeable plans, so a cache hit is bitwise-identical to a
    cold build by construction.  Each AAIS value is rendered at most
    once.

    The numeric back-end is one sequence of stages over K coefficient
    instances of one plan (see {!section-stages}): {!solve} runs it for
    a static target (K = 1) and {!solve_segments} for the segments of a
    time-dependent one, which [Td_compiler] discretizes.  [Compiler] is
    this module plus the batch and analysis entry points. *)

open Qturbo_aais
open Qturbo_pauli

module Failure = Qturbo_resilience.Failure
module Fault = Qturbo_resilience.Fault
module Supervisor = Qturbo_resilience.Supervisor
module Diagnostic = Qturbo_analysis.Diagnostic

type options = {
  refine : bool;  (** §6.2 iterative refinement (default true) *)
  time_opt : bool;
      (** §5.1 evolution-time optimisation; when false, the bottleneck
          time is tripled — the ablation baseline *)
  dense_linear_solver : bool;
      (** force the dense least-squares path (linear-solver ablation) *)
  generic_local_solver : bool;
      (** ignore the analytic linear/polar patterns and solve every
          dynamic component through the generic bisection + LM path
          (local-solver ablation) *)
  domains : int;
      (** pool width for the parallel stages (component solves, residual
          rows, α evaluation).  Defaults to
          {!Qturbo_par.Pool.default_domains} — i.e. [QTURBO_DOMAINS] when
          set, else cores − 1.  [1] runs fully sequentially; results are
          bitwise-identical either way. *)
  best_effort : bool;
      (** when a component fails every ladder stage, carry the failure on
          [result.failures] (with [degraded = true]) instead of raising
          {!Qturbo_resilience.Failure.Failed} (default false) *)
  deadline_seconds : float option;
      (** wall-clock budget for the numeric back-end, measured from the
          moment it builds its supervisor.  Stages started after expiry
          short-circuit with [Deadline_expired]; already-running pool
          sweeps are cancelled and re-run in short-circuit mode so the
          degraded result is identical at any [domains]. *)
  faults : Fault.spec option;
      (** deterministic fault injection for the supervised sites; [None]
          (the default) reads [QTURBO_FAULTS] from the environment *)
  plan_cache : bool;
      (** reuse structurally-identical plans from the process-wide LRU
          cache (default true); a cache hit skips the whole structural
          front-end and is bitwise-identical to a cold build by
          construction *)
}

val default_options : options

val stage_hook : (string -> unit) ref
(** Called with a stage name as the pipeline enters it: ["plan-build"],
    ["plan-cache-hit"], ["plan-store-hit"], ["precheck"],
    ["linear-solve"], ["local-solve"].  Defaults to a no-op; tests
    install a recorder to assert, without timing, that rejected inputs
    never reach a solver stage and that cached compiles skip the plan
    build. *)

type component_summary = {
  classification : string;  (** ["linear"|"polar"|"fixed"|"const"|"generic"] *)
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = {
  cache_enabled : bool;
  cache_hit : bool;  (** this compile's plan came from the memory cache *)
  store_enabled : bool;  (** the persistent plan store was active *)
  store_hit : bool;  (** this compile's plan came off the on-disk store *)
  cache_hits : int;  (** process-wide counter, sampled at completion *)
  cache_misses : int;
  cache_discarded : int;
      (** process-wide: fresh builds dropped because the key was
          already resident (concurrent double-builds) *)
  key_hits : int;  (** counters for {e this} compile's plan key *)
  key_misses : int;
  key_evictions : int;
  build_seconds : float;
      (** front-end cost, key render included (0 on a cache or store
          hit) *)
  solve_seconds : float;  (** numeric back-end cost *)
}

type provenance = Built | Cached | Stored
    (** Where a compile's plan came from: a fresh front-end build, the
        in-memory LRU, or the on-disk {!Qturbo_store.Plan_store}. *)

type result = {
  env : float array;  (** value of every AAIS variable *)
  t_sim : float;  (** compiled evolution time (µs) *)
  alpha_target : float array;  (** linear-system solution per channel *)
  alpha_achieved : float array;  (** [expr(env)·T_sim] per channel *)
  error_l1 : float;  (** [‖B_sim − B_tar‖₁] (paper Eq. 9) *)
  relative_error : float;  (** [error_l1 / ‖B_tar‖₁ × 100] (%) *)
  eps1 : float;  (** linear-system residual (Theorem 1's ε₁) *)
  eps2_total : float;  (** Σ of localized-system residuals (Σε₂ⁱ) *)
  theorem1_bound : float;  (** [‖M‖₁·Σε₂ + ε₁] — must dominate [error_l1] *)
  components : component_summary list;
  constraint_iterations : int;
  compile_seconds : float;  (** wall-clock time of the compilation *)
  warnings : string list;
      (** pipeline warnings; includes rendered warning-severity
          diagnostics from the precheck *)
  diagnostics : Diagnostic.t list;
      (** everything the pre-solve static analyzer found *)
  failures : Failure.t list;
      (** classified solver failures and recoveries collected by the
          resilience supervisor, in pipeline order *)
  degraded : bool;
      (** true iff some failure is fatal — a component kept a
          non-converged solution, or the constraint loop gave up with
          the layout breaking the device's constraints (best-effort
          compiles only; strict compiles raise instead) *)
  plan : plan_stats;  (** plan provenance and cache counters *)
}

(** {1 Plan artifacts} *)

type prepared_comp =
  | Dynamic of Local_solver.prepared
      (** a runtime-dynamic component: its classification and closed
          form or generic path *)
  | Fixed of Fixed_solver.prepared
      (** a runtime-fixed component: the §5.2 position solve *)

type device = {
  aais : Aais.t;
  channels : Instruction.channel array;
  vars : Variable.t array;
  generic_local_solver : bool;
  prepared : prepared_comp list;
      (** one prepared solver per locality component, in
          [Locality.decompose] order *)
}
(** The target-independent part of a plan: the locality components as
    their prepared solvers, each classified with the
    [generic_local_solver] override applied.  Depends only on the AAIS;
    it is built inside {!build} (or a store hit) and lives only in its
    plan. *)

type t = {
  device : device;
  support : Pauli_string.t list;
  skeleton : Linear_system.skeleton;
  structure_diags : Diagnostic.t list;
      (** the shape-only analyzer pass, computed once per plan *)
  precheck : Qturbo_analysis.Analysis.table;
      (** the target-independent facts of the coefficient-dependent
          passes over the support rows (coverage, achievable-rate
          intervals, variable-pool findings): {!diagnose} walks only the
          target's terms against it *)
  key : string;
      (** the {!plan_key} the LRU and the store file the plan under *)
  build_seconds : float;
}

val support_of_target : Pauli_sum.t -> Pauli_string.t list
(** Non-identity support, in term order (= {!Shape.support_of_target}). *)

val plan_key : options:options -> aais:Aais.t -> target:Pauli_sum.t -> string
(** The key this target's plan is filed under, in the LRU and the
    persistent store alike: [g=<flag>|<MD5 of the device
    rendering>|<MD5 of the support rendering>].  Coefficients do not
    contribute.  The device digest comes from the AAIS's memo, so only
    the first call on an AAIS value renders it.  A key names a
    candidate; what is served is confirmed by exact equality. *)

val build_device : options:options -> aais:Aais.t -> device
(** The device part {!build} builds for [aais]: one prepared solver per
    locality component, under [options.generic_local_solver].  No cache
    holds it. *)

val build :
  ?options:options ->
  aais:Aais.t ->
  target_shape:Pauli_string.t list ->
  unit ->
  t
(** Build a plan for a target shape (fires the ["plan-build"] hook):
    the device part ({!build_device}), the skeleton, then admission —
    the analyzer's structure pass and tables.  A store hit admits its
    plan through the same step.  The {!lint} pass does not run here:
    the constructors establish its invariants. *)

val obtain :
  options:options -> aais:Aais.t -> target:Pauli_sum.t -> t * provenance
(** Fetch-or-build the plan for [target]'s shape, reporting where it
    came from.  Lookup order: memory LRU, then the persistent store
    (when {!enable_store} is active — a validated store hit back-fills
    the LRU), then a fresh build (which back-fills both).  A store hit
    checks the entry's support and skeleton against the request, builds
    the device part from [aais] and admits the plan as {!build} does;
    resident plans are immutable and are served as they are. *)

val obtain_for_support :
  options:options ->
  aais:Aais.t ->
  support:Pauli_string.t list ->
  t * provenance
(** {!obtain} for an explicit (canonically sorted, identity-free)
    support instead of a target's own shape.  [Td_compiler] uses this to
    compile every segment of a sweep against the {e union} support of
    all segments, so coefficient cancellations in individual segments
    cannot fork a second plan shape. *)

(** {1 Plan linting}

    The cross-stage invariant pass ([Qturbo_analysis.Plan_lint], codes
    [QT023]–[QT026]) over a plan's artifacts: term-index coverage of the
    canonical support, skeleton dimensions, the partition of the
    channels and variables by the prepared solvers' components, and
    each solver's classification against its component.  Every plan
    {!obtain} serves is one {!build} constructed, or a store entry
    checked equal to what the requester's channels build, and those
    constructors establish the invariants; so no compile runs this
    pass.  [qturbo lint], the daemon's [lint] op and the tests do. *)

val lint : t -> Diagnostic.t list
(** Run the invariant pass on a plan; [[]] when sound. *)

(** {1 Solving} *)

val validate_t_tar : who:string -> float -> unit
(** Shared input validation: non-finite [t_tar] raises
    {!Diagnostic.Rejected} with a [QT016] diagnostic; [t_tar <= 0.0]
    raises [Invalid_argument "<who>: t_tar <= 0"]. *)

val validate_target : aais:Aais.t -> target:Pauli_sum.t -> t_tar:float -> unit
(** {!validate_t_tar} (as ["Compiler.compile"]) plus the qubit-range
    check: a target touching qubits outside the AAIS raises
    [Invalid_argument]. *)

(** {1:stages Numeric stages}

    The back-end runs over K coefficient instances that share one plan:
    a static target is one instance, a time-dependent target's segments
    are K.  Every instance gets its right-hand side, the precheck (with
    more than one instance, the findings are deduplicated by code and
    subject) and the §4.1 linear solve.  Then one of two tails runs,
    each starting with the §5.1 per-component evolution-time search:

    Each instance's start time is its padded bottleneck, or the padded
    1e-4 µs time floor when no component bounds it or some component is
    infeasible at any time (warned once per compile);
    [options.time_opt = false] triples it.

    - K = 1: the §5.2 constraint loop solves every component from the
      start time, and §6.2 refinement re-solves the dynamic components
      at the loop's T (deadline site ["refine"]).
    - K >= 2 (§5.3): the binding segment, the one with the largest
      fixed-channel amplitude demand, fixes the runtime-fixed layout;
      the constraint loop solves only the fixed components, starting
      from that segment's start time; every segment's duration is
      stretched so that layout integrates to its required [B], and each
      segment refines and re-solves its dynamic components at its
      duration (deadline site ["segment-loop"]).

    The device AAIS (geometry checks, qubit count) always comes from the
    plan. *)

val diagnose :
  ?t_max:float ->
  aais:Aais.t ->
  plan:t ->
  t_tar:float ->
  Pauli_sum.t ->
  Diagnostic.t list
(** Precheck of one coefficient instance: the coefficient-dependent
    analyzer passes, decided per target term from the plan's [precheck]
    table, plus the plan's structure findings — byte-identical to
    [Qturbo_analysis.Analysis.static_checks] followed by
    [structure_diags].  Channel and variable facts come from the plan's
    device; [aais] supplies only the qubit count ([QT004]) and the
    truncation summary ([QT029]).  A target term the plan has no row
    for raises [Invalid_argument], as {!solve} does. *)

val solve :
  ?options:options ->
  ?t_max:float ->
  ?provenance:provenance ->
  plan:t ->
  coeffs:Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** Run the numeric back-end: instantiate the right-hand side from
    [coeffs], precheck, global linear solve, evolution-time search,
    constraint iteration, refinement.  [coeffs] must lie inside the
    plan's shape (terms outside it raise [Invalid_argument]); extra
    shape rows simply get a zero target.  [?provenance] (default
    [Built]) only annotates [result.plan]. *)

module Segments : sig
  type segment_result = {
    env : float array;  (** value of every AAIS variable in this segment *)
    duration : float;  (** compiled duration of this segment (µs) *)
    error_l1 : float;
    eps1 : float;
  }

  type result = {
    segments : segment_result list;
    t_sim : float;  (** total compiled execution time *)
    error_l1 : float;  (** summed over segments *)
    relative_error : float;  (** percent, against the summed [‖B_tar‖₁] *)
    binding_segment : int;  (** index of the segment that fixed the layout *)
    compile_seconds : float;
    warnings : string list;
    diagnostics : Diagnostic.t list;
        (** static-analyzer findings over all segments; with more than
            one, deduplicated by (code, subject) *)
    failures : Failure.t list;
        (** classified solver failures and recoveries collected by the
            resilience supervisor, in pipeline order *)
    degraded : bool;
        (** true iff some failure is fatal (best-effort compiles only;
            strict compiles raise instead) *)
    plan_builds : int;
        (** structural front-ends this compile built: [1] when its
            plan's provenance is [Built], else [0] *)
  }
end
(** What {!solve_segments} returns; [Td_compiler] re-exports it. *)

val solve_segments :
  ?options:options ->
  ?t_max:float ->
  ?provenance:provenance ->
  plan:t ->
  t_tar:float ->
  Pauli_sum.t list ->
  Segments.result
(** Run the numeric back-end over the segments of a time-dependent
    target, each of duration [t_tar], against one plan whose shape holds
    every segment's terms (the precheck raises [Invalid_argument] on a
    term outside it).  The list must not be empty: [[]] raises
    [Invalid_argument].  The caller checks the register size, as
    [Td_compiler] does before it obtains the plan.  One segment is
    exactly {!solve} (its result as a single segment,
    [binding_segment = 0]).  The failure records and the other
    exceptions are {!solve}'s; [?provenance] (default [Built]) only
    sets [plan_builds]. *)

val compile :
  ?options:options ->
  ?t_max:float ->
  aais:Aais.t ->
  target:Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** [obtain] + [solve].  Raises [Invalid_argument] when [t_tar <= 0] or
    the target touches qubits outside the AAIS; a non-finite [t_tar]
    raises {!Qturbo_analysis.Diagnostic.Rejected} with a [QT016]
    diagnostic.

    The precheck runs every static-analysis pass before any solver:
    error-severity diagnostics raise
    {!Qturbo_analysis.Diagnostic.Rejected}, whatever
    [options.best_effort] says.  The findings are carried on
    [result.diagnostics], and warning-severity ones are additionally
    rendered into [result.warnings].

    Every component solve runs under the
    {!Qturbo_resilience.Supervisor} escalation ladder; if a component
    exhausts every stage the compile raises
    {!Qturbo_resilience.Failure.Failed} unless [options.best_effort] is
    set, in which case the degraded result is returned with the
    classified records on [result.failures]. *)

(** {1 Persistent plan store}

    Process-wide hook for the on-disk store ({!Qturbo_store.Plan_store}):
    when enabled, {!obtain} consults it on every memory-cache miss and
    persists every fresh build.  An entry is a plan's support and
    skeleton, marshaled without closures: nothing a solve executes
    comes from disk.  The store version ties entries to the exact
    executable (see {!store_version}); a load is checksum-validated,
    its support must equal the request's and its skeleton must be the
    one the requester's channels build ({!Linear_system.built_from}),
    and the plan is then admitted as {!build} admits one, over a device
    part built from the requester's AAIS.  So a stale, torn or
    hand-edited entry degrades to a rebuild, never to wrong output.
    Results are bitwise-identical with the store on or off. *)

val enable_store : dir:string -> unit
(** Route {!obtain} through a store rooted at [dir] (created lazily).
    Replaces any previously enabled store. *)

val disable_store : unit -> unit

val store_dir : unit -> string option
val store_stats : unit -> Qturbo_store.Plan_store.stats option

val store_version : unit -> string
(** The store-format version tag this process writes and requires:
    a format prefix plus the running executable's digest ([Marshal] is
    not type-safe across builds, so a new binary must invalidate every
    prior entry).  Exposed for tests and ops tooling. *)

(** {1 Cache control} *)

val cache_stats : unit -> Plan_cache.stats

val cache_per_key : unit -> (string * Plan_cache.key_stats) list
(** Per-key counters of the plan cache, keyed by the plan keys
    ({!t.key}; display layers digest them further), sorted by key. *)

val clear_caches : unit -> unit
(** Empty every {!Plan_cache} in the process — plans and the
    service's backend instances — and zero their counters: the state of
    a fresh process (tests, benchmarks and cold-path measurement). *)
