(** Structural fingerprints of a compile's {e shape}.

    The front-end artifacts of a compile — term index, linear-system
    skeleton, the locality components' prepared solvers — depend only
    on the AAIS and the set of Pauli strings the target Hamiltonian
    touches, never on the coefficients or the target evolution time.  This module renders that dependency set into a
    canonical string, the key of [Qturbo_core.Compile_plan]'s
    structural plan cache.  The SimuQ baseline shares the same helper
    (its global system is keyed identically), so both compilers agree
    on when two compiles have the same shape.

    Renderings are exact, not hashed: every float is rendered as its
    IEEE bits in hex, so two devices differing in one ulp of a bound
    get different renderings.  A channel's expression is rendered from
    its template: each template's text is cut at its variables once per
    rendering, and every instance splices its own ids in.  The device rendering is memoized on the
    {!Aais.t} (see {!Aais.memo_key}), so each AAIS value is rendered at
    most once, however many compiles key it. *)

val of_aais : Aais.t -> string
(** Canonical rendering of the device structure, taken once per AAIS
    value and served from its memo afterwards: name, qubit count,
    the builder {!Aais.t.fingerprint}, the {!Aais.t.truncation} summary
    when the builder dropped pairs, every variable (id, kind, box bounds,
    initial guess) and every channel (cid, expression tree, solver hint,
    effect terms with coefficients).

    Everything the solve and the analyzer read of a device is rendered
    (what only the [check_fixed] closure reads, through the
    fingerprint), floats by their bits, so equal renderings mean
    interchangeable devices: a plan built on one serves the other.  Variable names and
    channel labels are left out; the builder and its parameters, which
    the name and the fingerprint render, determine them. *)

val digest : Aais.t -> Digest.t
(** MD5 of {!of_aais}, memoized with it: the compact stand-in for the
    rendering in cache keys. *)

val same_device : Aais.t -> Aais.t -> bool
(** Equal renderings: physical equality, or else [String.equal] of the
    two memoized {!of_aais}.  Confirms a digest match exactly. *)

val support_of_target : Qturbo_pauli.Pauli_sum.t -> Qturbo_pauli.Pauli_string.t list
(** The target's shape: its support in canonical (sorted) order with
    the identity string removed — exactly the term set the compiler's
    row index is built from. *)

val of_support : Qturbo_pauli.Pauli_string.t list -> string
(** Canonical rendering of a target shape: each string as its ascending
    [site op] pairs (["0Z1Z"] for Z₀Z₁), one [','] after each — the
    spelling {!of_aais} uses for channel effects, linear in the
    strings' weight rather than in the qubit count. *)

val key : aais:Aais.t -> support:Qturbo_pauli.Pauli_string.t list -> string
(** [of_aais aais] and [of_support support] joined — the full
    structural key of one (device, target-shape) pair. *)
