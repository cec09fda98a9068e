(** Compilation of time-dependent targets (paper §5.3): a discretizer in
    front of {!Compile_plan.solve_segments}.

    The driven Hamiltonian is discretized into piecewise-constant segments
    (midpoint rule), one plan is obtained for them, and the numeric
    back-end runs over the segments as instances of that plan.
    Runtime-dynamic variables may change between segments, but
    runtime-fixed variables (atom positions) are shared: the back-end
    picks the segment demanding the largest fixed-channel amplitude as
    the {e binding segment}, solves the layout against it, and stretches
    every other segment's evolution time so its (now over-strong) fixed
    amplitudes integrate to exactly the required [B] — lowering the
    dynamic amplitudes, which always remains within bounds (paper's
    argument at the end of §5.3). *)

include module type of struct
  include Compile_plan.Segments
end
(** {!Compile_plan.Segments}, with [compile_seconds] counting the
    discretization and the plan too.  Every segment compiles against
    one plan, so [plan_builds] is [0] or [1] and a sweep over
    re-discretized models pays the front-end once. *)

val compile :
  ?options:Compile_plan.options ->
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  model:Qturbo_models.Model.t ->
  t_tar:float ->
  segments:int ->
  unit ->
  result
(** Works for static models too (each segment then sees the same
    Hamiltonian).  Raises [Invalid_argument] on finite nonpositive
    [t_tar], and, at any segment count, when a segment touches qubits
    outside the AAIS; a non-finite [t_tar] or [segments <= 0] raises
    {!Qturbo_analysis.Diagnostic.Rejected} with a structured [QT016]
    diagnostic instead of an unclassified exception.

    The plan is obtained under the union support of all segments, so a
    coefficient that cancels in one segment cannot fork a second plan
    shape; for one segment that union is the segment's own support, and
    the compile is bitwise-identical to {!Compiler.compile} of the
    discretized Hamiltonian.  The segments run the numeric stages of
    {!Compile_plan.section-stages}.

    Every discretized segment Hamiltonian runs through the pre-solve
    static analyzer first; error-severity diagnostics raise
    {!Qturbo_analysis.Diagnostic.Rejected} before any solver runs.

    The binding-layout and per-segment solves run under the resilience
    escalation ladder; if a component exhausts every stage the compile
    raises {!Qturbo_resilience.Failure.Failed} unless
    [options.best_effort] is set, in which case the degraded result is
    returned with the classified records on [result.failures]. *)
