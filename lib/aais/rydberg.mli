(** The Rydberg AAIS (paper §2.1.1): van-der-Waals pair interactions
    controlled by runtime-fixed atom positions, plus detuning and Rabi
    drive instructions controlled by runtime-dynamic variables.

    {ul
    {- van der Waals, for every atom pair (i, j):
       [C6/|x_i−x_j|⁶ · n̂_i n̂_j], expanding to Z_iZ_j, Z_i, Z_j (and an
       ignored identity shift) with synthesized amplitude
       [C6/(4 d⁶)];}
    {- detuning, per atom (or one global): [−Δ n̂_i], synthesized
       amplitude [Δ/2] feeding Z_i;}
    {- Rabi drive, per atom (or one global):
       [(Ω/2)cos φ · X_i − (Ω/2)sin φ · Y_i], a cos/sin channel pair.}} *)

type t = {
  aais : Aais.t;
  spec : Device.rydberg;
  n : int;
  xs : Variable.t array;  (** per-atom x coordinates (runtime fixed) *)
  ys : Variable.t array option;  (** y coordinates; [None] for 1-D *)
  deltas : Variable.t array;  (** length [n], or 1 under global control *)
  omegas : Variable.t array;
  phis : Variable.t array;
}

type cutoff =
  | All_pairs  (** exact: every (i, j) pair channel, O(n²) of them *)
  | Radius of float
      (** neighbor list of the initial layout: only pairs within this
          distance (µm) get a channel.  O(n) channels for geometrically
          local layouts.  When the radius covers the full layout
          diameter the build is byte-identical to {!All_pairs}. *)
  | Auto
      (** {!All_pairs} up to {!auto_threshold} atoms, then
          [Radius (auto_radius_factor · default spacing)] — large
          builds scale near-linearly while every small device stays
          exact. *)

val auto_threshold : int
(** Atom count above which [Auto] starts truncating (96). *)

val auto_radius_factor : float
(** [Auto]'s cutoff radius in units of the default lattice spacing
    (2.5 — keeps first and second neighbors on chain and polygon
    layouts; the nearest dropped coupling is ~0.14% of the
    nearest-neighbor amplitude). *)

val default_spacing : float
(** Initial inter-atom spacing of the generated layouts (µm). *)

val pairs_within :
  radius:float -> (float * float) array -> (int * int) list
(** Neighbor-list enumeration: all pairs [(i, j)], [i < j], with
    [|p_i − p_j| <= radius], in the (i ascending, j ascending) order of
    the exact double loop.  Cell-grid backed — O(n) for bounded-density
    layouts. *)

val build_cutoff : cutoff:cutoff -> spec:Device.rydberg -> n:int -> t
(** Build the AAIS for [n] atoms under a cutoff policy ([All_pairs]
    forces the exact O(n²) channels at any size; [Radius r] truncates at
    [r] µm regardless of size).  Atom 0 is pinned at the origin (and
    atom 1 at [y = 0] in planar geometry) to fix the translation/rotation
    gauge of the position solve.  Initial positions are an evenly spaced
    chain (1-D) or regular polygon (2-D).  When pairs are dropped the
    AAIS carries an {!Aais.truncation} summary and the analyzer reports
    the truncation bound as [QT029]. *)

val build : spec:Device.rydberg -> n:int -> t
(** {!build_cutoff} under the {!Auto} policy: exact all-pairs channels
    up to {!auto_threshold} atoms, the neighbor-list cutoff beyond. *)

val positions : t -> env:float array -> (float * float) array
(** Atom coordinates under an environment ([y = 0] in 1-D). *)

val distance : t -> env:float array -> int -> int -> float

val hamiltonian : t -> env:float array -> Qturbo_pauli.Pauli_sum.t
(** The physical simulator Hamiltonian at the given variable values:
    van-der-Waals from the positions plus the detuning/Rabi drives.  Used
    for theory curves and by the device emulator.  The terms of
    {!iter_terms}, collected. *)

val iter_terms :
  t ->
  env:float array ->
  (Qturbo_pauli.Pauli_string.t -> float -> unit) ->
  unit
(** {!hamiltonian}'s terms, streamed in ascending
    {!Qturbo_pauli.Pauli_string.compare} order without building the
    sum: for each atom i, X_i, Y_i, Z_i, then Z_iZ_j for every j > i.
    Zero coefficients are skipped; every other coefficient is
    bit-identical to the collected sum's.  One O(n) accumulator array,
    no per-term map update — the verifier's entry point. *)

val hamiltonian_of_pulse :
  ?cutoff_radius:float ->
  spec:Device.rydberg ->
  positions:(float * float) array ->
  omega:float array ->
  phi:float array ->
  delta:float array ->
  unit ->
  Qturbo_pauli.Pauli_sum.t
(** Same physics from explicit pulse parameters (per-atom arrays), without
    an AAIS instance — the emulator's entry point.  [cutoff_radius]
    drops van-der-Waals pairs beyond that distance, reconstructing what
    a cutoff-truncated AAIS compiles against; the default is the exact
    physics (a real device's tails do not truncate).  Built from the same
    term stream as {!iter_terms}. *)

val check_layout : spec:Device.rydberg -> (float * float) array -> string list
(** Geometric constraint violations: pairwise separation below
    [min_separation], or the bounding box exceeding [max_extent]. *)
