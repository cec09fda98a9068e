(** Term-coverage analysis (pass 1).

    Every Pauli term of the target Hamiltonian must be producible by at
    least one instruction channel on the mapped sites, or the global
    linear system contains a row with an empty left-hand side and the
    solve can only fail with an unexplained residual.  This pass reports
    the exact unsupported terms up front:

    {ul
    {- [QT001] (error): a target term no channel produces;}
    {- [QT004] (error): the target touches qubits outside the AAIS.}}

    {!Analysis} walks the target's terms; this module decides one. *)

val judge :
  n_qubits:int ->
  covered:bool ->
  Qturbo_pauli.Pauli_string.t ->
  Diagnostic.t option
(** The finding for one target term: [QT004] when it touches a site
    [>= n_qubits], else [QT001] when no channel feeds it
    ([covered = false]), else none. *)
