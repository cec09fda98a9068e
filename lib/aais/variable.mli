(** Amplitude variables of an analog instruction set (paper §2.1.1).

    A variable is either {e runtime fixed} (set before the program starts
    and immutable during execution — atom positions) or {e runtime
    dynamic} (adjustable while the program runs — detunings, Rabi
    amplitudes, phases).  Variables carry box bounds from the device
    specification and an initial guess for the nonlinear solvers.

    Variables are allocated from a pool; their ids index the environment
    arrays the compiler passes around. *)

type kind = Runtime_fixed | Runtime_dynamic

type t = {
  id : int;
  name : string;
  kind : kind;
  bound : Qturbo_optim.Bounds.bound;
  init : float;
}

type pool

val create_pool : unit -> pool

val fresh :
  pool ->
  name:string ->
  kind:kind ->
  ?lo:float ->
  ?hi:float ->
  ?init:float ->
  unit ->
  t
(** Allocate a variable.  Bounds default to unbounded; [init] defaults to
    the bound midpoint when finite, else [0.]. *)

val copy_pool : pool -> pool
(** An independent pool holding the same variables: {!fresh} on the
    copy leaves the original (and every AAIS built on it) untouched.
    O(1) — the variables themselves are immutable and shared. *)

val count : pool -> int

val all : pool -> t array
(** All variables, indexed by id. *)

val get : pool -> int -> t
(** Raises [Invalid_argument] on unknown ids. *)

val identical : t -> t -> bool
(** Same id, name and kind, and bit-identical bounds and initial
    guess. *)

val is_fixed : t -> bool

val is_dynamic : t -> bool

val initial_env : pool -> float array
(** Environment array preloaded with every variable's [init]. *)

val bounds_array : pool -> Qturbo_optim.Bounds.bound array

val pp : Format.formatter -> t -> unit
