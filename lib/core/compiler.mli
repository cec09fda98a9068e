(** The QTurbo compilation pipeline (paper §4–§6) for time-independent
    targets.

    Stages: build the global linear system over synthesized variables and
    solve it (greedy structural pass, dense fallback); decompose channels
    and variables into locality components; take [T_sim] as the maximum of
    the components' shortest feasible evolution times (the bottleneck
    instruction runs at full amplitude); solve each localized mixed system
    at [T_sim] — closed forms for linear/polar components, damped
    least squares for the runtime-fixed (position) components; iterate
    [T_sim] upward if the layout violates device geometry; finally apply
    the §6.2 refinement, re-solving the runtime-dynamic channels against
    the residual left by the achieved runtime-fixed amplitudes.

    This is {!Compile_plan} — the structural front-end, its caches and
    the staged numeric back-end — plus the batch and analysis entry
    points below. *)

include module type of struct
  include Compile_plan
end

val analyze :
  ?t_max:float ->
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  unit ->
  Qturbo_analysis.Diagnostic.t list
(** Run every static-analysis pass (coverage, bounds feasibility,
    system structure, variable sanity) without compiling: {!obtain}
    the target's plan (default options, so it is the plan a compile
    would use, served from the cache or the store when resident) and
    {!diagnose} against it.  [t_max] enables the [QT003] magnitude
    check.  This is what [qturbo check] calls. *)

val compile_batch :
  ?options:options ->
  ?t_max:float ->
  ?batch_domains:int ->
  aais:Qturbo_aais.Aais.t ->
  (Qturbo_pauli.Pauli_sum.t * float) list ->
  result list
(** Compile a list of [(target, t_tar)] jobs against one AAIS, building
    the structural front-end once per distinct target shape.  With
    [options.plan_cache] (the default) plans go through the process-wide
    cache; with it disabled a batch-local memo still shares plans inside
    the batch.  Each job's result is exactly what {!compile} would have
    produced for it.

    Runs in two phases: plans are validated and acquired sequentially
    in job order (deterministic cache accounting), then the numeric
    back-ends run on the work pool with [batch_domains] workers
    (default [1] — fully sequential).  Results are collected by index,
    so the output list is bitwise-identical at any [batch_domains],
    including under injected faults; a rejection or failure raises the
    smallest-index job's exception, exactly like the sequential loop. *)
