(** First-class backend abstraction: one record per AAIS family
    packaging everything the pipeline needs beyond the family-agnostic
    solve core — AAIS construction from a device preset, typed pulse
    extraction, device limit checks, verification, the ramping post-pass
    hook, and pulse printing/JSON emission.

    The CLI dispatches every command through {!find_exn} instead of
    per-family matches; adding a family means implementing one {!t}
    value and calling {!register} (see [docs/BACKENDS.md]). *)

open Qturbo_aais

type flag = Device_preset | Cutoff | Ramp
    (** CLI options that only exist for some families.  A backend
        declares the flags it understands; the CLI rejects any explicit
        use of an undeclared flag (exit 2) instead of silently ignoring
        it. *)

val flag_name : flag -> string
(** The user-facing spelling, e.g. ["--cutoff"]. *)

(** A typed pulse schedule — the per-family extraction result. *)
type pulse =
  | Rydberg_pulse of Pulse.rydberg
  | Heisenberg_pulse of Pulse.heisenberg
  | Iontrap_pulse of Pulse.iontrap

val pulse_text : pulse -> string
(** Human-readable schedule (the family's [pp_*] printer). *)

val pulse_json : pulse -> string
(** Strict-JSON schedule ({!Qturbo_aais.Pulse_io}). *)

val pulse_violations : pulse -> string list
(** Device-limit violations; for Rydberg this is
    [within_limits @ slew_violations], matching what the CLI has always
    printed under [--show-pulse]. *)

type instance = {
  backend_name : string;
  device_name : string;  (** resolved preset name *)
  aais : Aais.t;  (** feeds the family-agnostic compilers directly *)
  max_time : float;  (** device schedule-length limit, for [analyze] *)
  spec_diagnostics : Qturbo_analysis.Diagnostic.t list;
      (** QT010/QT011 findings on the device preset itself *)
  verify :
    target:Qturbo_pauli.Pauli_sum.t ->
    t_tar:float ->
    Qturbo_core.Compiler.result ->
    Qturbo_core.Verifier.report;
      (** independent reconstruction through the family's physical
          Hamiltonian *)
  extract : env:float array -> t_sim:float -> pulse;
  ramp : pulse -> pulse;
      (** hardware ramping post-pass; the identity for families without
          slew limits *)
}
(** A backend bound to a concrete device, model support and size. *)

type t = {
  name : string;
  doc : string;  (** one-line summary for listings *)
  flags : flag list;  (** CLI options this family understands *)
  devices : (string * string) list;
      (** device presets as [(name, human summary)] *)
  default_device : string option;
      (** preset used when [--device] is omitted; [None] when the family
          has a single implicit device *)
  instantiate :
    ?device:string -> ?cutoff:string -> model_name:string -> n:int -> unit ->
    instance;
      (** Build the AAIS.  [model_name] lets a family adapt (the Rydberg
          backend picks planar layouts for cycle/lattice models).  Raises
          [Failure] on unknown presets or malformed cutoffs. *)
}

val supports : t -> flag -> bool

val reject_unsupported :
  t -> device:string option -> cutoff:string option -> ramp:bool -> unit
(** Raises [Failure] (CLI exit 2) when an explicitly-passed flag is not
    declared by the backend. *)

(** {1 Registry} *)

val register : t -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val find : string -> t option

val find_exn : string -> t
(** Raises [Failure] listing the known names (CLI exit 2). *)

val names : unit -> string list
(** Registration order. *)

val all : unit -> t list

(** {1 Built-in backends}

    Registered at module initialisation, in this order. *)

val rydberg : t
val heisenberg : t
val iontrap : t

val rydberg_presets : (string * Device.rydberg) list
(** The Rydberg device presets by name, as defined.  [qturbo run]
    compiles against them as they are; {!rydberg}'s [instantiate]
    widens the window for [n > 16] and switches cycle and lattice
    models to planar geometry on top of them. *)
