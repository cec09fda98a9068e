(** Independent verification of compiled results.

    Defence in depth for the compiler pipeline: rather than trusting the
    linear-system bookkeeping, the verifier recomputes the {e physical}
    simulator Hamiltonian from the compiled variable values (through
    {!Qturbo_aais.Rydberg.iter_terms} / {!Qturbo_aais.Heisenberg.hamiltonian}
    / {!Qturbo_aais.Iontrap.hamiltonian}, which know nothing about
    channels or synthesized variables), compares [H_sim·T_sim] with
    [H_tar·T_tar] coefficient by coefficient, and re-checks the
    extracted pulse against the device limits.

    The comparison is one merge of two term streams in ascending
    Pauli-string order — the simulator's terms against the target's —
    with no intermediate sum: a Rydberg device's O(n²) pair terms are
    generated straight into it.  Its sums follow the order and float
    association of the sum-based comparison
    ([scale]/[sub]/[norm1] over {!Qturbo_pauli.Pauli_sum}), so every
    report value is bit-identical to it. *)

type report = {
  error_l1 : float;  (** independently recomputed [‖B_sim − B_tar‖₁] *)
  relative_error : float;  (** percent *)
  max_term_error : float;  (** worst single Pauli-term mismatch *)
  executable : bool;  (** pulse passes {!Qturbo_aais.Pulse.within_limits} *)
  violations : string list;
      (** human-readable limit violations (kept stable for existing
          callers; the same findings appear structured in [diagnostics]) *)
  diagnostics : Qturbo_analysis.Diagnostic.t list;
      (** structured view of the violations — [QT012]/[QT013] for Rydberg
          pulse limits and slew, [QT014]/[QT015] for Heisenberg time and
          bound violations *)
  consistent_with_compiler : bool;
      (** recomputed error agrees with the compiler's own metric within
          [1e-6] absolute + 1 % relative *)
  failures : Qturbo_resilience.Failure.t list;
      (** the compile's classified solver-failure records, carried
          through so one report tells the whole degradation story *)
  degraded : bool;  (** the compile kept a non-converged component *)
  plan : Compiler.plan_stats;
      (** the compile's plan provenance and cache counters, carried
          through to the JSON report (["plan_cache"] object) *)
}

val verify_rydberg :
  Qturbo_aais.Rydberg.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  Compiler.result ->
  report

val verify_heisenberg :
  Qturbo_aais.Heisenberg.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  Compiler.result ->
  report

val verify_iontrap :
  Qturbo_aais.Iontrap.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  Compiler.result ->
  report
(** Same reconstruction through {!Qturbo_aais.Iontrap.hamiltonian}; the
    extracted pulse is checked with
    {!Qturbo_aais.Pulse.iontrap_within_limits} ([QT012]) plus the
    cross-family [QT014] schedule-length diagnostic. *)

val report_to_json : report -> string
(** One JSON object; the structured diagnostics land under ["analysis"]
    (see {!Qturbo_analysis.Diagnostic.list_to_json}). *)
