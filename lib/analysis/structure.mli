(** Equation-system structure analysis (pass 3).

    Operates on the assembled global linear system's matrix and a
    generic view of its locality decomposition, so this library stays
    independent of [qturbo.core] (which passes its skeleton's matrix and
    converts its [Locality] components into {!comp} before calling in):

    {ul
    {- [QT005] (error): a dangling synthesized variable — an instruction
       channel that feeds no Hamiltonian term and appears in no system
       row, so its amplitude is unconstrained and the instruction is
       dead weight;}
    {- [QT006] (warning): an amplitude variable referenced by no channel
       expression — it can never influence the compiled pulses;}
    {- [QT007] (warning/info): a locality component with more channels
       than free variables (+1 for the shared evolution time), so its
       local system is generically over-constrained and the local solver
       can only produce a least-squares fit.  Reported as a warning when
       every variable in the component is runtime-dynamic, and as info
       when runtime-fixed variables participate (the standard
       van-der-Waals wrap rows are expected to be fit in this sense).}} *)

type comp = { id : int; channel_ids : int list; var_ids : int list }

val check :
  channels:Qturbo_aais.Instruction.channel array ->
  variables:Qturbo_aais.Variable.t array ->
  matrix:Qturbo_linalg.Csr.t ->
  comps:comp list ->
  Diagnostic.t list
(** [matrix] is the system matrix, one column per channel: a channel
    appears in a system equation when some row stores it with a
    non-zero value. *)
