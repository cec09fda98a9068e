(** The global linear equation system over synthesized variables
    (paper §4.1, Eq. 5).

    Unknown [α_k] is channel [k]'s synthesized variable — its amplitude
    expression times the evolution time.  Row [i] demands
    [Σ_k M_{ik} α_k = B_tar_i] where [B_tar_i] is the target coefficient
    of Pauli term [i] times [T_tar] (zero for terms the target does not
    contain). *)

type t = {
  index : Term_index.t;
  b_tar : float array;
  csr : Qturbo_linalg.Csr.t;
      (** The matrix [M], one row per indexed term, each row's entries
          in channel order; its column count is the channel count.
          Shared with the skeleton; do not mutate. *)
}

type skeleton
(** The coefficient-free part of the system: the term index and the
    matrix.  Both depend only on the channels and the target's
    {e shape} (which Pauli terms it touches), so a skeleton is built
    once per shape and shared — across a parameter sweep, across the
    segments of a time-dependent compile — while [b_tar] is
    re-instantiated per coefficient instance. *)

val skeleton :
  channels:Qturbo_aais.Instruction.channel array ->
  support:Qturbo_pauli.Pauli_string.t list ->
  skeleton
(** Build the index and the matrix from a target shape
    ({!Qturbo_aais.Shape.support_of_target}): row [i]'s entries are the
    channels' non-identity effects on term [i], in channel order.
    Raises [Invalid_argument] when a row would name a channel twice —
    the structural precondition {!solve} relies on without
    re-checking. *)

val built_from :
  channels:Qturbo_aais.Instruction.channel array ->
  support:Qturbo_pauli.Pauli_string.t list ->
  skeleton ->
  bool
(** [built_from ~channels ~support sk]: [sk] is what
    [skeleton ~channels ~support] builds — the same rows in the same
    order, a lookup table that returns each row's own number, a matrix
    with one row per term and one column per channel, and each row's
    entries the channels' non-identity effects on that row's term, in
    channel order, bit for bit, with none left over.  One pass over the
    rows and the effects; [false], never an exception, for a
    structurally damaged matrix.  The persistent plan store runs it on
    every entry it loads. *)

val instantiate :
  skeleton -> target:Qturbo_pauli.Pauli_sum.t -> t_tar:float -> t
(** Attach the instance-specific right-hand side
    [b_tar_i = coeff_i · t_tar].  The index and matrix are shared with
    the skeleton (they are never mutated); only [b_tar] is fresh.
    [target] must have the shape the skeleton was built from — terms
    outside the skeleton's row set are silently ignored, which is why
    [Compile_plan] keys plans by shape. *)

val skeleton_index : skeleton -> Term_index.t
(** The shared term index (row numbering) of a skeleton. *)

val skeleton_csr : skeleton -> Qturbo_linalg.Csr.t
(** The shared matrix of a skeleton (see {!t.csr}) — do not mutate. *)

val csr : t -> Qturbo_linalg.Csr.t
(** The system matrix (the [csr] field). *)

val build :
  channels:Qturbo_aais.Instruction.channel array ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  t
(** [instantiate (skeleton ...) ...] in one step. *)

val solve : t -> Qturbo_linalg.Sparse_solve.result
(** Greedy structural pass + dense fallback
    ({!Qturbo_linalg.Sparse_solve.solve_csr}) on the shared [csr] and
    [b_tar].  The structure was checked when the skeleton was built (and
    by the plan lint gate for plans loaded from a store), not here. *)

val solve_dense : t -> Qturbo_linalg.Sparse_solve.result
(** Dense-only reference path ({!Qturbo_linalg.Sparse_solve.dense_csr}),
    for the linear-solver ablation. *)

val b_of_alpha : t -> alpha:float array -> float array
(** [M·α] — the achieved coefficient vector [B_sim]. *)

val residual_l1 : t -> alpha:float array -> float
(** [‖M·α − B_tar‖₁], the compilation error metric (paper Eq. 9). *)

val norm1 : t -> float
(** [‖M‖₁], the constant of Theorem 1's error bound. *)
