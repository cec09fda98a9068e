(** An Abstract Analog Instruction Set: the compiler's view of a device.

    Bundles the variable pool, the instruction list and a constraint check
    on the runtime-fixed variables (geometric feasibility of atom
    layouts).  Built by {!Rydberg.build} / {!Heisenberg.build}; the
    compiler core consumes only this interface. *)

type truncation = {
  radius : float;  (** interaction-cutoff radius (µm) the builder applied *)
  kept_pairs : int;  (** pair channels emitted *)
  dropped_pairs : int;  (** pair channels omitted (beyond [radius]) *)
  dropped_l1 : float;
      (** L1 weight of every omitted effect at the initial layout, in
          the channel amplitude's units (MHz for Rydberg): the
          per-unit-time operator-norm error of the truncated device
          Hamiltonian there.  Multiplied by the evolution time it
          estimates the addition to the Theorem-1 bound; the analyzer
          reports it as [QT029]. *)
  max_dropped : float;  (** largest single omitted pair amplitude *)
}
(** Summary of an interaction cutoff a builder applied while emitting
    pair channels (e.g. {!Rydberg.build} with a neighbor-list cutoff).
    Only present when pairs were actually dropped — an AAIS whose cutoff
    covered the full layout is byte-identical to the exact one. *)

type key_memo
(** A slot holding {!Shape}'s rendering of the AAIS once it has been
    taken (see {!memo_key}). *)

type t = private {
  name : string;
  n_qubits : int;
  pool : Variable.pool;
  instructions : Instruction.t list;
  check_fixed : float array -> string list;
      (** [check_fixed env] returns human-readable violations of the
          runtime-fixed-variable constraints (empty = feasible).  Drives
          the evolution-time iteration of paper §5.2. *)
  fingerprint : string;
      (** Builder-supplied rendering of every device parameter that is
          {e not} visible through the variables and channels — the
          parameters captured only inside the [check_fixed] closure
          (e.g. the minimum atom separation).  Part of the structural
          cache key computed by {!Shape}; two AAIS values whose
          variables, channels and fingerprint all agree are
          interchangeable for compilation. *)
  sites : (int * int option) array;
      (** Per lattice site, the variable ids of its coordinates:
          [(x_id, Some y_id)] on a plane, [(x_id, None)] on a line.
          Empty when the device has no spatial layout (e.g.
          Heisenberg).  {!Shape} uses this to anchor the first site at
          the origin when rendering the structural cache key, so
          rigidly-translated devices share one plan. *)
  truncation : truncation option;
      (** Interaction-cutoff summary when the builder dropped pair
          channels; [None] for exact devices.  Not part of the
          structural cache key — the emitted channels already determine
          it. *)
  key_memo : key_memo;
      (** Empty until the first {!memo_key}.  The type is [private], so
          [{ aais with ... }] cannot carry one device's memo over to
          another: every AAIS comes from {!make}. *)
}

val make :
  name:string ->
  n_qubits:int ->
  pool:Variable.pool ->
  instructions:Instruction.t list ->
  ?check_fixed:(float array -> string list) ->
  ?fingerprint:string ->
  ?sites:(int * int option) array ->
  ?truncation:truncation ->
  unit ->
  t
(** Validates that channel [cid]s are dense [0 .. count-1] (raises
    [Invalid_argument] otherwise).  [fingerprint] defaults to [""] —
    correct only when [check_fixed] captures nothing beyond what the
    variables and channels already expose.  [sites] defaults to [[||]]
    (no spatial layout, no key canonicalization).  The key memo starts
    empty: building an AAIS renders nothing. *)

type rendering = { text : string; digest : Digest.t  (** MD5 of [text] *) }

val memo_key : t -> render:(t -> string) -> rendering
(** [render t] with its digest, computed on the first call and served
    from the memo afterwards.  A variable added to [t.pool] since the
    memo was filled (the pool is mutable) discards it and renders
    again.  Safe to call from several domains at once. *)

val without_key_memo : t -> t
(** The same AAIS with an empty memo, for serializing a plan without
    the rendering it already carries in its keys. *)

val channels : t -> Instruction.channel array
(** All channels indexed by [cid]. *)

val channel_count : t -> int

val variable : t -> int -> Variable.t

val variables : t -> Variable.t array

val fixed_variable_ids : t -> int list
