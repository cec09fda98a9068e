(** Compilation of time-dependent targets (paper §5.3).

    The driven Hamiltonian is discretized into piecewise-constant segments
    (midpoint rule).  Runtime-dynamic variables may change between
    segments, but runtime-fixed variables (atom positions) must be shared:
    the solver picks the segment demanding the largest fixed-channel
    amplitude as the {e binding segment}, solves the layout against it,
    and stretches every other segment's evolution time so its (now
    over-strong) fixed amplitudes integrate to exactly the required
    [B] — lowering the dynamic amplitudes, which always remains within
    bounds (paper's argument at the end of §5.3). *)

type segment_result = {
  env : float array;
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
  diagnostics : Qturbo_analysis.Diagnostic.t list;
      (** static-analyzer findings over all discretized segments,
          deduplicated by (code, subject) *)
  failures : Qturbo_resilience.Failure.t list;
      (** classified solver failures and recoveries collected by the
          resilience supervisor, in pipeline order *)
  degraded : bool;
      (** true iff some failure is fatal (best-effort compiles only;
          strict compiles raise instead) *)
  plan_builds : int;
      (** structural front-ends actually built by this compile ([0] or
          [1]): every segment compiles against one plan keyed by the
          union support of the whole discretization, so a sweep over
          re-discretized models pays the front-end once *)
}

val compile :
  ?options:Compile_plan.options ->
  ?strict:bool ->
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

    [~segments:1] delegates to the time-independent pipeline
    ({!Compile_plan.compile}) — a single-segment compile is
    bitwise-identical to {!Compiler.compile} of the discretized
    Hamiltonian.  With more segments, every segment runs the same
    numeric stages ({!Compile_plan.section-stages}) against one plan
    built for the union support of all segments; only the binding
    segment's layout solve and the duration stretching are specific to
    time-dependent targets.  [options.time_opt = false] triples each
    segment's dynamic bottleneck, as the static path does its own.

    Every discretized segment Hamiltonian runs through the pre-solve
    static analyzer first; with [strict] (the default) error-severity
    diagnostics raise {!Qturbo_analysis.Diagnostic.Rejected} before any
    solver runs.

    The binding-layout and per-segment solves run under the resilience
    escalation ladder; if a component exhausts every stage the compile
    raises {!Qturbo_resilience.Failure.Failed} unless
    [options.best_effort] is set, in which case the degraded result is
    returned with the classified records on [result.failures]. *)
