(** Bounds-feasibility analysis (pass 2).

    For every target term the compiler must find channel amplitudes whose
    summed effect integrates to [coeff · t_tar].  This pass bounds the
    achievable instantaneous rate of each term by interval arithmetic
    over the symbolic channel expressions ({!Qturbo_aais.Expr.eval_interval})
    using the declared variable bounds, and reports terms that are
    provably out of reach before any solver runs:

    {ul
    {- [QT002] (error): the required sign of the rate is unreachable —
       e.g. a negative ZZ coefficient on a van-der-Waals interaction
       whose rate interval is strictly positive;}
    {- [QT003] (warning): the sign is reachable but, given the device's
       maximum evolution time [t_max], the achievable integral falls
       short of [coeff · t_tar].  A warning rather than an error because
       the interval bound is conservative.}}

    Terms no channel produces at all have no rate; pass 1 reports them
    as [QT001].  A term's rate comes from its {e cells}, the
    [(channel id, effect coefficient)] pairs of the channels feeding it
    in channel order: {!scan} collects them from the channel effect
    lists, a compile plan reads them off its linear-system skeleton. *)

type interval = float * float

val channel_rates :
  channels:Qturbo_aais.Instruction.channel array ->
  variables:Qturbo_aais.Variable.t array ->
  int ->
  interval
(** [channel_rates ~channels ~variables] maps a channel id to the
    interval of its amplitude expression over the variables' declared
    bounds, evaluating each channel at most once, on first use. *)

val row_rate : rate:(int -> interval) -> (int * float) list -> interval
(** A term's achievable-rate interval from its cells: the interval sum
    of [coeff · rate cid], folded from the last cell to the first.
    Every producer of cells goes through here, so equal cells give
    bit-equal intervals. *)

val judge :
  ?t_max:float ->
  t_tar:float ->
  Qturbo_pauli.Pauli_string.t ->
  float ->
  interval ->
  Diagnostic.t option
(** [judge ?t_max ~t_tar s coeff rate]: the finding for a target term
    with a nonzero coefficient.  [t_max], when given, must be positive
    and finite to enable the [QT003] magnitude check. *)

val scan :
  channels:Qturbo_aais.Instruction.channel array ->
  variables:Qturbo_aais.Variable.t array ->
  target:Qturbo_pauli.Pauli_sum.t ->
  Qturbo_pauli.Pauli_string.t ->
  interval option
(** The reference producer: one pass over every channel's effect list,
    collecting the cells of the target's terms.  The returned function
    gives a target term's rate, [None] when no channel feeds it. *)
