(** Compiled pulse schedules — the compiler's output artifact.

    A schedule is a sequence of piecewise-constant segments (a single
    segment for time-independent targets).  Rydberg schedules also carry
    the static atom layout. *)

type rydberg_segment = {
  duration : float;  (** µs *)
  omega : float array;  (** per-atom Rabi amplitude *)
  phi : float array;  (** per-atom Rabi phase *)
  delta : float array;  (** per-atom detuning *)
}

type rydberg = {
  spec : Device.rydberg;
  positions : (float * float) array;  (** µm *)
  segments : rydberg_segment list;
}

val rydberg_duration : rydberg -> float
(** Total execution time — the paper's "execution time" metric. *)

val rydberg_segment_hamiltonians : rydberg -> (Qturbo_pauli.Pauli_sum.t * float) list
(** [(H_k, τ_k)] per segment, for noiseless theory evolution. *)

val within_limits : rydberg -> string list
(** Violations of the device's dynamic-amplitude and total-time limits
    (empty = executable).  Slew limits are checked separately by
    {!slew_violations}: raw compiled pulses are rectangles and only pass
    after the ramping post-pass. *)

val slew_violations : rydberg -> string list
(** Rabi slew-rate violations on {e internal} transitions: the schedule
    is read as samples joined by linear ramps, so the rate between
    consecutive segments is [|ΔΩ| / ((τ_k + τ_{k+1})/2)].  The start/end
    condition (the drive must begin and end at zero) is a separate check,
    {!Qturbo_core.Ramp.ramp_admissible}.  Empty when the spec's
    [omega_slew_max] is infinite. *)

val pp_rydberg : Format.formatter -> rydberg -> unit

type heisenberg_segment = {
  duration : float;
  amplitudes : (Qturbo_pauli.Pauli_string.t * float) list;
      (** nonzero Pauli amplitudes of the segment *)
}

type heisenberg = {
  spec : Device.heisenberg;
  segments : heisenberg_segment list;
}

val heisenberg_duration : heisenberg -> float

val heisenberg_segment_hamiltonians :
  heisenberg -> (Qturbo_pauli.Pauli_sum.t * float) list

val heisenberg_within_limits : heisenberg -> string list
(** Amplitude-bound (weight-1 terms against [single_max], weight-2 terms
    against [two_max]) and total-time violations; empty = executable. *)

val pp_heisenberg : Format.formatter -> heisenberg -> unit

type iontrap_segment = {
  duration : float;  (** µs *)
  omega : float array;  (** per-ion Rabi amplitude *)
  phi : float array;  (** per-ion drive phase *)
  mu : float array;  (** per-ion light shift *)
  couplings : (int * int * Qturbo_pauli.Pauli.op * float) list;
      (** Mølmer–Sørensen pair amplitudes as [(i, j, basis, J)] *)
}

type iontrap = { spec : Device.iontrap; segments : iontrap_segment list }

val iontrap_duration : iontrap -> float

val iontrap_within_limits : iontrap -> string list
(** Per-ion drive/shift bounds, distance-dependent coupling bounds
    ({!Iontrap.pair_bound}) and the total-time limit.  Ion traps have no
    slew-rate analogue here — there is no separate slew check and the
    ramping post-pass is an identity for this family. *)

val pp_iontrap : Format.formatter -> iontrap -> unit
