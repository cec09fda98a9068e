(** Instruction channels: the "Instructions → Synthesized variables →
    Hamiltonian terms" structure of paper Fig. 2.

    An {e instruction} is one tunable knob of the device (a van-der-Waals
    pair interaction, a detuning, a Rabi drive).  Each instruction exposes
    one or more {e channels}; a channel is a synthesized amplitude
    expression together with the Hamiltonian terms it feeds and their
    constant coefficients.  The channel's [expr × T_sim] is exactly the
    paper's synthesized variable α. *)

type effect = { pstring : Qturbo_pauli.Pauli_string.t; coeff : float }
(** One arrow of Fig. 2's lower layer: this channel adds
    [coeff · expr · T] to the Pauli term's [B] entry.  Identity-string
    effects may be listed but are ignored by the compiler. *)

type solver_hint =
  | Hint_linear of { var : int; slope : float }
      (** [expr = slope · var]; [var] is the time-critical variable. *)
  | Hint_polar_cos of { amp : int; phase : int; scale : float }
      (** [expr = scale · amp · cos phase]; [amp] is time-critical. *)
  | Hint_polar_sin of { amp : int; phase : int; scale : float }
      (** [expr = scale · amp · sin phase], the partner channel. *)
  | Hint_fixed
      (** depends only on runtime-fixed variables (solved in phase 2). *)
  | Hint_generic  (** no special structure; generic local solver. *)

type channel = {
  cid : int;  (** dense channel index within one AAIS *)
  label : string;
  template : Expr.template;  (** the expression shape this channel instantiates *)
  ids : int array;
      (** the global variable id of each local variable of [template],
          pairwise distinct: exactly the variables the channel reads *)
  kernel : Expr.kernel;
      (** the instance's kernel, relabeled from the template's at
          construction; hot paths evaluate this instead of
          re-interpreting the ADT *)
  effects : effect list;
  hint : solver_hint;
}

type t = {
  label : string;
  channels : channel list;
  variables : int list;  (** distinct variable ids across the channels *)
}

val make : label:string -> channels:channel list -> t
(** Derives [variables] from the channels' ids. *)

val channel :
  cid:int ->
  label:string ->
  template:Expr.template ->
  ids:int array ->
  effects:effect list ->
  hint:solver_hint ->
  channel
(** An instance of [template] over [ids] ({!Expr.instance}, which
    raises [Invalid_argument] on a wrong count or a repeated id).
    Smoke-checks the hint against the expression structure:
    [Hint_linear] must satisfy {!Expr.is_linear_in} and the polar hints
    must depend on exactly their two variables.  Raises
    [Invalid_argument] on a lying hint. *)

val channel_of_expr :
  cid:int ->
  label:string ->
  expr:Expr.t ->
  effects:effect list ->
  hint:solver_hint ->
  channel
(** {!channel} on a one-off template split from [expr] ({!Expr.split}):
    for channels made one at a time, outside a device builder. *)

val expr : channel -> Expr.t
(** The channel's amplitude expression, [template] over [ids]
    ({!Expr.instance_expr}), built on each call: passes that only
    evaluate a channel read its kernel or its template instead. *)

val eval_channel : channel -> env:float array -> float
(** [Expr.eval_kernel] on the cached kernel — bitwise-identical to
    [Expr.eval (expr c) ~env]. *)

val effect_terms : channel -> (Qturbo_pauli.Pauli_string.t * float) list
(** Non-identity effects. *)

val validate_hint : channel -> bool
(** The check behind {!channel}, exposed for property tests. *)
