(** Symbolic amplitude expressions over AAIS variables.

    Every instruction channel's strength is an expression in the device's
    amplitude variables — e.g. the van-der-Waals channel is
    [C6 / (4·(x_i − x_j)⁶)] and a Rabi channel is [(Ω/2)·cos φ].  Keeping
    these symbolic gives the compiler three things for free: the variable
    dependency sets that drive the locality decomposition, exact
    Jacobians for the local solvers (no finite differences on the hot
    path), and pattern hints that stay trustworthy because they are
    checked against the expression structure in tests. *)

type t =
  | Const of float
  | Var of int  (** a {!Variable.t} id *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow_int of t * int  (** integer exponent, may be negative *)
  | Sin of t
  | Cos of t

val const : float -> t
val var : Variable.t -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val pow : t -> int -> t
val neg : t -> t
val sin_ : t -> t
val cos_ : t -> t

val eval : t -> env:float array -> float
(** Evaluate with variable [id] bound to [env.(id)].  Division by zero
    and 0^negative follow IEEE semantics (yield infinities/NaN) so the
    optimisers can see and reject the region. *)

val int_pow : float -> int -> float
(** The arithmetic of [Pow_int] in {!eval}, the compiled kernels and
    {!eval_interval}: binary exponentiation, low exponent bit first,
    squaring the base once per bit and multiplying it into an
    accumulator seeded with [1.0] on the set bits; a negative exponent
    gives [1.0 /. int_pow x (-n)].  Allocation-free. *)

val eval_interval : t -> bounds:(float * float) array -> float * float
(** Conservative interval evaluation: [eval_interval e ~bounds] encloses
    [eval e ~env] for every [env] with [env.(id)] inside the closed
    interval [bounds.(id)].  Endpoints may be infinite.  Division by an
    interval containing zero widens to a ray (denominator touching zero
    at an endpoint) or to the whole line (zero in the interior);
    [Pow_int] distinguishes even/odd and negative exponents; [Sin]/[Cos]
    locate their exact extrema when the argument interval is narrower
    than a period and clamp to [[-1, 1]] otherwise.  Any indeterminate
    endpoint combination (e.g. [inf - inf]) widens to the whole line, so
    the result is always a sound — if sometimes loose — enclosure.
    Drives the pre-solve bounds-feasibility analysis
    ({!Qturbo_analysis.Feasibility} in [qturbo.analysis]). *)

val deriv : t -> int -> t
(** Exact symbolic partial derivative with respect to a variable id,
    lightly simplified. *)

val vars : t -> int list
(** Distinct variable ids, ascending. *)

val depends_on : t -> int -> bool

val map_vars : (int -> int) -> t -> t
(** The same expression with every variable id [v] renamed to [f v]:
    {!eval} of the result on an environment holding [env.(f v)] performs
    the same float operations on the same values as {!eval} of the
    original on one holding [env.(v)]. *)

val simplify : t -> t
(** Constant folding and algebraic identities ([0·x], [x+0], [x^1], …).
    Idempotent. *)

val is_linear_in : t -> int -> float option
(** [is_linear_in e v] is [Some k] when [e = k·(Var v)] exactly for a
    constant [k] (detected structurally after simplification), i.e. the
    channel is a pure linear drive of a time-critical variable. *)

(** The interval-arithmetic primitives behind {!eval_interval}, exposed
    so the kernel verifier ([Qturbo_analysis.Kernel_check]) can run its
    abstract interpreter with {e exactly} the arithmetic of the source
    evaluator — any reimplementation would turn rounding differences
    into spurious range-soundness findings.  All operations are
    conservative enclosures; indeterminate endpoint combinations widen
    to the whole line. *)
module Interval : sig
  type it = float * float

  val whole : it
  val of_const : float -> it

  val of_bound : it -> it
  (** Sanitize a variable bound the way {!eval_interval} does: NaN
      endpoints or an inverted interval widen to the whole line. *)

  val neg : it -> it
  val add : it -> it -> it
  val sub : it -> it -> it
  val mul : it -> it -> it
  val div : it -> it -> it
  val pow : it -> int -> it
  val sin_ : it -> it
  val cos_ : it -> it
end

(** {1 Compiled kernels}

    The recursive {!eval} walks the ADT on every call — fine for a
    one-off probe, an interpretive tax inside an optimiser loop.
    {!compile} flattens an expression once into a postfix program
    (opcode / argument int arrays plus a constant table) that
    {!eval_kernel} runs with a tight non-allocating loop over a
    reusable, domain-local stack. *)

type kernel

val compile : t -> kernel
(** Flatten to a postfix program.  [eval_kernel (compile e) ~env]
    performs exactly the float operations of [eval e ~env], on the
    same values, in the same order — the result is bitwise-identical,
    including IEEE special cases (division by zero, NaN). *)

val eval_kernel : kernel -> env:float array -> float
(** Evaluate a compiled kernel.  Allocation-free after the first call
    on a domain (the evaluation stack is domain-local scratch, so
    kernels may be shared freely across pool domains).  Raises
    [Invalid_argument] like {!eval} when [env] is shorter than the
    largest variable id read. *)

val kernel_length : kernel -> int
(** Number of postfix steps (one per ADT node). *)

val kernel_max_var : kernel -> int
(** Largest variable id the kernel reads, [-1] for a closed
    expression. *)

val compile_unfused : t -> kernel
(** {!compile} with the peephole fusion pass disabled: one postfix step
    per ADT node, base opcodes only.  Evaluates bitwise-identically to
    the fused kernel (fusion only collapses dispatch) — the reference
    point for the peephole-equivalence property tests. *)

val compile_hook : (t -> kernel -> unit) ref
(** Called by {!compile} / {!compile_unfused} on every kernel, and by
    {!instance} and {!Deriv_table.kernels} on every kernel they relabel,
    with the source expression the kernel computes.  Default is a no-op.
    [Qturbo_analysis.Kernel_check.install_compile_hook] points this at
    the kernel verifier so test-mode runs check every kernel at birth;
    the hook may raise to reject a bad kernel. *)

(** {1 Templates}

    A device repeats one expression shape across thousands of channels:
    every planar van-der-Waals pair is
    [c / ((x_i − x_j)² + (y_i − y_j)²)³] over its own coordinates.  A
    builder declares that shape once, as a template over local variables
    [0 .. k-1], and makes each channel an instance of it: the local
    variables mapped to the channel's global ids.  Work that depends only
    on the shape (compiling, deriving, rendering) then runs once per
    template and is relabeled per channel. *)

type template

val template : t -> template
(** Declare a template: the expression, whose variables must be exactly
    [0 .. k-1] (raises [Invalid_argument] otherwise), compiled once.
    Each call is a new template, with its own identity. *)

val template_expr : template -> t
(** The expression over local variables. *)

val split : t -> template * int array
(** [split e] is [(tpl, ids)]: a one-off template of [e] with its
    variables renamed to [0 .. k-1] in left-to-right first-occurrence
    order, and [ids.(l)] the id local variable [l] stands for, so
    [instance_expr tpl ids] is [e]. *)

val instance_expr : template -> int array -> t
(** The template's expression with local variable [l] renamed to
    [ids.(l)]: the instance's expression, built on each call. *)

val instance : template -> int array -> kernel
(** The kernel {!compile} gives [instance_expr tpl ids] — the same
    program, constants (by bits), depth and {!kernel_max_var} — made by
    relabeling the template's kernel, or compiled directly when an id is
    2²⁴ or more.  {!compile_hook} sees every instance kernel, with its
    expression.  Raises [Invalid_argument] unless [ids] has one entry
    per local variable and no id repeats. *)

(** A table keyed by template identity, for one pass over one device:
    create it inside the pass, never process-wide. *)
module Template_memo : sig
  type 'a t

  val create : unit -> 'a t

  val find_or_add : 'a t -> template -> (unit -> 'a) -> 'a
  (** The value stored for this template, or [make ()] stored first. *)
end

module Deriv_table : sig
  type table
  (** Mutable: compiled derivative kernels per template.  Keep one per
      unit of work (a [Fixed_solver.prepare]), never process-wide. *)

  val create : unit -> table

  val kernels :
    table -> wrt:(int -> bool) -> template -> int array -> (int * kernel) list
  (** [kernels tbl ~wrt tpl ids] is [(v, compile (deriv e v))] for every
      variable [v] of the instance [e = instance_expr tpl ids] with
      [wrt v], in ascending [v], leaving out those whose derivative
      simplifies to [Const 0.0].  Each kernel is the one {!compile}
      gives — the same program, constants (by bits), depth and
      {!kernel_max_var} — but a template is derived and compiled once
      per table; its instances get those kernels relabeled, sharing the
      constant tables.  An instance with an id of 2²⁴ or more compiles
      directly.  {!compile_hook} sees every returned kernel, with its
      source derivative.  Raises [Invalid_argument] on [ids] that
      {!instance} rejects. *)
end

(** {1 Batched evaluation}

    A residual sweep evaluates every channel kernel of a component
    against the same environment, once per optimiser iteration.
    {!Batch.pack} concatenates the kernels into one flat program so
    {!Batch.eval} runs a range of rows as a single loop writing into a
    plain [float array] — no per-kernel dispatch, no boxed intermediate
    values, and (after the first call on a domain) no allocation at all.
    The batch and {!eval_kernel} run one and the same interpreter loop,
    so they cannot drift apart.  Pool domains can fill disjoint row
    ranges of one array. *)
module Batch : sig
  type t

  val pack : kernel array -> t
  (** Concatenate kernels into one program.  Evaluating row [r] performs
      exactly the float operations [eval_kernel] performs on kernel [r],
      in the same order, so every output is bitwise-identical to the
      per-kernel evaluator. *)

  val eval :
    t -> env:float array -> out:float array -> lo:int -> hi:int -> unit
  (** [eval b ~env ~out ~lo ~hi] writes kernel [r]'s value to
      [out.(r)] for every [r] in [\[lo, hi)], and nothing else.  Raises
      [Invalid_argument] when the range leaves [\[0, length b\]] or [out]
      is shorter than [hi].  Domain-safe: the evaluation stack is the
      same domain-local scratch {!eval_kernel} uses, so domains may fill
      disjoint ranges of one array at once. *)

  val length : t -> int
  (** Number of packed kernels (rows). *)
end

(** {1 Typed IR view}

    The packed [int array] program, decoded instruction by instruction
    for static analysis.  {!kernel_view} is total: words whose opcode is
    outside the defined range decode to {!vm_instr.K_unknown} instead of
    raising, so a verifier can report malformed programs as findings.
    {!kernel_of_view} re-encodes a view — [kernel_of_view (kernel_view k)
    ~consts:(kernel_consts k) ~depth:(kernel_depth k)
    ~max_var:(kernel_max_var k)] rebuilds [k] exactly, and deliberately
    performs no validation so tests can craft corrupted kernels. *)

type binop = B_add | B_sub | B_mul | B_div

type vm_instr =
  | K_const of int  (** push [consts.(i)] *)
  | K_var of int  (** push [env.(v)] *)
  | K_neg
  | K_binop of binop  (** pop b, pop a, push [a op b] *)
  | K_pow of int
  | K_sin
  | K_cos
  | K_vv of binop * int * int  (** fused: push [env.(a) op env.(b)] *)
  | K_var_op of binop * int  (** fused: top ← [top op env.(v)] *)
  | K_const_op of binop * int  (** fused: top ← [top op consts.(i)] *)
  | K_sq  (** fused: top ← top² *)
  | K_cube
  | K_dsq of int * int  (** fused: push [(env.(a) − env.(b))²] *)
  | K_crdiv of int  (** fused: top ← [consts.(i) / top] *)
  | K_var_sin of int
  | K_var_cos of int
  | K_unknown of { op : int; arg : int }  (** undecodable word *)

val kernel_view : kernel -> vm_instr array

val kernel_consts : kernel -> float array
(** A copy of the constant table. *)

val kernel_depth : kernel -> int
(** The declared stack-slot requirement ([eval_kernel] sizes its scratch
    from this, so a kernel that actually needs more writes out of
    bounds — exactly what the verifier checks). *)

val kernel_of_view :
  vm_instr array -> consts:float array -> depth:int -> max_var:int -> kernel

val pp : Format.formatter -> t -> unit
