(** Interaction-cutoff accounting (analyzer code [QT029]).

    When a builder truncated the device's pair interactions (e.g.
    {!Qturbo_aais.Rydberg.build} beyond its auto threshold), the AAIS
    carries an {!Qturbo_aais.Aais.truncation} summary.  This pass turns
    it into an [Info] diagnostic estimating the addition to the
    Theorem-1 error bound: the L1 weight of every omitted effect bounds
    the per-unit-time operator-norm error of the truncated device
    Hamiltonian, multiplied by the target evolution time.  The weight is
    taken at the initial layout, before the position solve moves the
    atoms, so the figure is an estimate and not a bound: at n = 300 the
    dropped pairs weigh 2.5x as much at the compiled layout.  Exact
    devices (no truncation record) produce no diagnostics. *)

val check : aais:Qturbo_aais.Aais.t -> t_tar:float -> Diagnostic.t list
