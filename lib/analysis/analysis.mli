(** Pre-solve static analyzer entry points.

    [qturbo.analysis] inspects a target Hamiltonian against an AAIS
    {e before} any solver runs and emits structured {!Diagnostic.t}
    findings: unsupported Pauli terms, coefficients provably outside the
    interval-evaluated channel ranges, degenerate equation-system
    structure, and device/unit sanity problems.  The compiler front-ends
    ([Qturbo_core.Compiler] / [Td_compiler]) run the same passes as a
    fail-fast precheck, from a {!table} their plan computed once;
    [qturbo check] exposes them on the command line.

    Pass 3 (system structure) needs the assembled linear system and its
    locality decomposition, which live in [qturbo.core]; the core
    passes its matrix, converts its components into {!Structure.comp}
    and calls {!Structure.check} directly. *)

val static_checks :
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  ?t_max:float ->
  unit ->
  Diagnostic.t list
(** Passes 1 (term coverage), 2 (bounds feasibility), the variable-pool
    part of pass 4, and the interaction-cutoff accounting ({!Truncation},
    [QT029]), in stable order.  [t_max] enables the [QT003] magnitude
    check.  The reference implementation: it scans every channel's
    effect list ({!Feasibility.scan}); {!target_checks} is the same
    decisions from a {!table}. *)

type table = {
  pool : Diagnostic.t list;
      (** the variable-pool findings ({!Device_check.variables},
          [QT009]) *)
  rates : Feasibility.interval option array;
      (** per tabled row, its term's achievable-rate interval; [None]
          when no channel feeds the row *)
}
(** The target-independent facts of passes 1, 2 and 4 over a fixed row
    set: what a compile plan keeps so that a precheck walks only the
    target's terms. *)

val table :
  channels:Qturbo_aais.Instruction.channel array ->
  variables:Qturbo_aais.Variable.t array ->
  matrix:Qturbo_linalg.Csr.t ->
  rows:int ->
  table
(** Tabulate rows [0 … rows-1] of the system [matrix] (one column per
    channel, each row's entries in channel order, as
    {!Feasibility.row_rate} reads them).  A channel's interval is
    evaluated at most once, and only when it feeds a tabled row. *)

val target_checks :
  table ->
  aais:Qturbo_aais.Aais.t ->
  rate_of:(Qturbo_pauli.Pauli_string.t -> Feasibility.interval option) ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  ?t_max:float ->
  unit ->
  Diagnostic.t list
(** {!static_checks} from a table: [rate_of s] gives target term [s]'s
    rate (read off the table by the caller's row numbering, [None] when
    nothing feeds it).  [aais] supplies only the qubit count ([QT004])
    and the truncation summary ([QT029]).  When the table and [rate_of]
    describe [aais]'s channels and variables, the result is
    byte-identical to {!static_checks}. *)

val check_or_raise : Diagnostic.t list -> unit
(** Raises {!Diagnostic.Rejected} with the error-severity subset when
    any diagnostic is an error; returns unit otherwise. *)
