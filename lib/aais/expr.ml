type t =
  | Const of float
  | Var of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow_int of t * int
  | Sin of t
  | Cos of t

let const x = Const x
let var (v : Variable.t) = Var v.Variable.id
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let pow a n = Pow_int (a, n)
let neg a = Neg a
let sin_ a = Sin a
let cos_ a = Cos a

(* binary exponentiation, shared by [eval] and the interval evaluator so
   interval endpoints reproduce [eval]'s rounding exactly.  A loop over
   local refs, inlined at its call sites, keeps the floats unboxed: the
   kernels' pow opcode runs it on every evaluation of a 1-D
   van-der-Waals row ([pow dx 6]). *)
let[@inline] int_pow_nonneg x n =
  let acc = ref 1.0 and base = ref x and k = ref n in
  while !k > 0 do
    if !k land 1 = 1 then acc := Stdlib.( *. ) !acc !base;
    base := Stdlib.( *. ) !base !base;
    k := !k asr 1
  done;
  !acc

let[@inline] int_pow x n =
  if n >= 0 then int_pow_nonneg x n
  else Stdlib.( /. ) 1.0 (int_pow_nonneg x (Stdlib.( ~- ) n))

let rec eval e ~env =
  match e with
  | Const x -> x
  | Var id -> env.(id)
  | Neg a -> -.eval a ~env
  | Add (a, b) -> Stdlib.( +. ) (eval a ~env) (eval b ~env)
  | Sub (a, b) -> Stdlib.( -. ) (eval a ~env) (eval b ~env)
  | Mul (a, b) -> Stdlib.( *. ) (eval a ~env) (eval b ~env)
  | Div (a, b) -> Stdlib.( /. ) (eval a ~env) (eval b ~env)
  | Pow_int (a, n) -> int_pow (eval a ~env) n
  | Sin a -> Stdlib.sin (eval a ~env)
  | Cos a -> Stdlib.cos (eval a ~env)

module Int_set = Set.Make (Int)

let rec var_set = function
  | Const _ -> Int_set.empty
  | Var id -> Int_set.singleton id
  | Neg a | Sin a | Cos a | Pow_int (a, _) -> var_set a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      Int_set.union (var_set a) (var_set b)

let vars e = Int_set.elements (var_set e)
let depends_on e id = Int_set.mem id (var_set e)

let rec map_vars f e =
  match e with
  | Const _ -> e
  | Var id -> Var (f id)
  | Neg a -> Neg (map_vars f a)
  | Add (a, b) -> Add (map_vars f a, map_vars f b)
  | Sub (a, b) -> Sub (map_vars f a, map_vars f b)
  | Mul (a, b) -> Mul (map_vars f a, map_vars f b)
  | Div (a, b) -> Div (map_vars f a, map_vars f b)
  | Pow_int (a, n) -> Pow_int (map_vars f a, n)
  | Sin a -> Sin (map_vars f a)
  | Cos a -> Cos (map_vars f a)

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> (
      match simplify a with
      | Const x -> Const (-.x)
      | Neg b -> b
      | a' -> Neg a')
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Stdlib.( +. ) x y)
      | Const 0.0, b' -> b'
      | a', Const 0.0 -> a'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Stdlib.( -. ) x y)
      | a', Const 0.0 -> a'
      | Const 0.0, b' -> simplify (Neg b')
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Stdlib.( *. ) x y)
      | Const 0.0, _ | _, Const 0.0 -> Const 0.0
      | Const 1.0, b' -> b'
      | a', Const 1.0 -> a'
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y when y <> 0.0 -> Const (Stdlib.( /. ) x y)
      | a', Const 1.0 -> a'
      | Const 0.0, b' when b' <> Const 0.0 -> Const 0.0
      | a', b' -> Div (a', b'))
  | Pow_int (a, n) -> (
      match (simplify a, n) with
      | a', 1 -> a'
      | _, 0 -> Const 1.0
      | Const x, n -> Const (eval (Pow_int (Const x, n)) ~env:[||])
      | a', n -> Pow_int (a', n))
  | Sin a -> (
      match simplify a with Const x -> Const (Stdlib.sin x) | a' -> Sin a')
  | Cos a -> (
      match simplify a with Const x -> Const (Stdlib.cos x) | a' -> Cos a')

let rec deriv_raw e id =
  match e with
  | Const _ -> Const 0.0
  | Var v -> if v = id then Const 1.0 else Const 0.0
  | Neg a -> Neg (deriv_raw a id)
  | Add (a, b) -> Add (deriv_raw a id, deriv_raw b id)
  | Sub (a, b) -> Sub (deriv_raw a id, deriv_raw b id)
  | Mul (a, b) -> Add (Mul (deriv_raw a id, b), Mul (a, deriv_raw b id))
  | Div (a, b) ->
      Div (Sub (Mul (deriv_raw a id, b), Mul (a, deriv_raw b id)), Pow_int (b, 2))
  | Pow_int (a, n) ->
      Mul
        ( Mul (Const (float_of_int n), Pow_int (a, Stdlib.( - ) n 1)),
          deriv_raw a id )
  | Sin a -> Mul (Cos a, deriv_raw a id)
  | Cos a -> Neg (Mul (Sin a, deriv_raw a id))

let deriv e id = simplify (deriv_raw e id)

let is_linear_in e id =
  match simplify e with
  | Var v when v = id -> Some 1.0
  | Mul (Const k, Var v) | Mul (Var v, Const k) when v = id -> Some k
  | Div (Var v, Const k) when v = id && k <> 0.0 -> Some (Stdlib.( /. ) 1.0 k)
  | Neg (Var v) when v = id -> Some (-1.0)
  | Neg (Mul (Const k, Var v)) | Neg (Mul (Var v, Const k)) when v = id ->
      Some (-.k)
  | Const _ | Var _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ | Pow_int _ | Sin _
  | Cos _ ->
      None

(* ---- interval evaluation ------------------------------------------- *)

(* A closed interval [lo, hi] with possibly infinite endpoints.  The
   arithmetic is conservative: results always enclose the image of the
   true function over the inputs, widening to the whole line whenever a
   tighter enclosure would require case analysis we cannot justify
   (division through zero, indeterminate endpoint products). *)

let whole = (neg_infinity, infinity)

(* an endpoint combination that produced NaN (inf - inf, 0 * inf after
   IEEE, ...) carries no information: widen to the whole line *)
let norm ((lo, hi) as i) =
  if Float.is_nan lo || Float.is_nan hi then whole else i

(* endpoint product with the 0 * inf = 0 convention: an infinite endpoint
   encodes an unbounded direction, and scaling it by exactly zero
   contributes nothing to the product's range *)
let mul_ep a b = if a = 0.0 || b = 0.0 then 0.0 else Stdlib.( *. ) a b

let imul (a, b) (c, d) =
  let p1 = mul_ep a c and p2 = mul_ep a d and p3 = mul_ep b c and p4 = mul_ep b d in
  norm
    ( Float.min (Float.min p1 p2) (Float.min p3 p4),
      Float.max (Float.max p1 p2) (Float.max p3 p4) )

(* reciprocal of an interval.  When the interval straddles zero in its
   interior the reciprocal is two disconnected rays; we return the whole
   line (the convex hull), which stays sound. *)
let iinv (c, d) =
  if c = 0.0 && d = 0.0 then whole
  else if c >= 0.0 then
    (* [0, d] or [c, d] with c > 0: positive ray *)
    ( (if d = infinity then 0.0 else Stdlib.( /. ) 1.0 d),
      if c = 0.0 then infinity else Stdlib.( /. ) 1.0 c )
  else if d <= 0.0 then
    ( (if d = 0.0 then neg_infinity else Stdlib.( /. ) 1.0 d),
      if c = neg_infinity then 0.0 else Stdlib.( /. ) 1.0 c )
  else whole

let idiv u v = imul u (iinv v)

let ipow_nonneg (a, b) n =
  if n = 0 then (1.0, 1.0)
  else
    let pa = int_pow_nonneg a n and pb = int_pow_nonneg b n in
    if n land 1 = 1 then (pa, pb) (* odd: monotone *)
    else if a >= 0.0 then (pa, pb)
    else if b <= 0.0 then (pb, pa)
    else (0.0, Float.max pa pb)

let ipow i n = if n >= 0 then ipow_nonneg i n else iinv (ipow_nonneg i (-n))

let two_pi = 2.0 *. Float.pi

(* does [lo, hi] contain a point of the form offset + k * period? *)
let contains_grid_point lo hi ~offset ~period =
  if Stdlib.( -. ) hi lo >= period then true
  else
    let k = Float.ceil (Stdlib.( /. ) (Stdlib.( -. ) lo offset) period) in
    Stdlib.( +. ) offset (Stdlib.( *. ) k period) <= hi

let icos (a, b) =
  if (not (Float.is_finite a)) || not (Float.is_finite b) then (-1.0, 1.0)
  else if Stdlib.( -. ) b a >= two_pi then (-1.0, 1.0)
  else
    let ca = Stdlib.cos a and cb = Stdlib.cos b in
    let lo =
      if contains_grid_point a b ~offset:Float.pi ~period:two_pi then -1.0
      else Float.min ca cb
    in
    let hi =
      if contains_grid_point a b ~offset:0.0 ~period:two_pi then 1.0
      else Float.max ca cb
    in
    (lo, hi)

(* sin x = cos (x - pi/2); shifting the interval keeps the enclosure
   conservative up to the rounding of the shift, which [icos]'s exact
   extrema (+-1) absorb *)
let isin (a, b) =
  if (not (Float.is_finite a)) || not (Float.is_finite b) then (-1.0, 1.0)
  else if Stdlib.( -. ) b a >= two_pi then (-1.0, 1.0)
  else
    let sa = Stdlib.sin a and sb = Stdlib.sin b in
    let lo =
      if contains_grid_point a b ~offset:(Stdlib.( /. ) (-.Float.pi) 2.0) ~period:two_pi
      then -1.0
      else Float.min sa sb
    in
    let hi =
      if contains_grid_point a b ~offset:(Stdlib.( /. ) Float.pi 2.0) ~period:two_pi
      then 1.0
      else Float.max sa sb
    in
    (lo, hi)

(* The primitives above, packaged for reuse by the kernel verifier
   ([Qturbo_analysis.Kernel_check]): its abstract interpreter must run
   the {e same} interval arithmetic as [eval_interval], otherwise the
   enclosure comparison would report rounding discrepancies as range
   violations. *)
module Interval = struct
  type it = float * float

  let whole = whole
  let of_const x = (x, x)

  let of_bound ((lo, hi) as i) =
    if Float.is_nan lo || Float.is_nan hi || lo > hi then whole else i

  let neg (lo, hi) = (-.hi, -.lo)

  let add (alo, ahi) (blo, bhi) =
    norm (Stdlib.( +. ) alo blo, Stdlib.( +. ) ahi bhi)

  let sub (alo, ahi) (blo, bhi) =
    norm (Stdlib.( -. ) alo bhi, Stdlib.( -. ) ahi blo)

  let mul = imul
  let div = idiv
  let pow = ipow
  let sin_ = isin
  let cos_ = icos
end

let rec eval_interval e ~bounds =
  match e with
  | Const x -> (x, x)
  | Var id ->
      let ((lo, hi) as i) = bounds.(id) in
      if Float.is_nan lo || Float.is_nan hi || lo > hi then whole else i
  | Neg a ->
      let lo, hi = eval_interval a ~bounds in
      (-.hi, -.lo)
  | Add (a, b) ->
      let alo, ahi = eval_interval a ~bounds and blo, bhi = eval_interval b ~bounds in
      norm (Stdlib.( +. ) alo blo, Stdlib.( +. ) ahi bhi)
  | Sub (a, b) ->
      let alo, ahi = eval_interval a ~bounds and blo, bhi = eval_interval b ~bounds in
      norm (Stdlib.( -. ) alo bhi, Stdlib.( -. ) ahi blo)
  | Mul (a, b) -> imul (eval_interval a ~bounds) (eval_interval b ~bounds)
  | Div (a, b) -> idiv (eval_interval a ~bounds) (eval_interval b ~bounds)
  | Pow_int (a, n) -> ipow (eval_interval a ~bounds) n
  | Sin a -> isin (eval_interval a ~bounds)
  | Cos a -> icos (eval_interval a ~bounds)

(* ---- compiled kernels ----------------------------------------------- *)

(* A flat postfix program packed one instruction per word —
   [(arg lsl 5) lor op] — plus a const table.  [eval_kernel] is a
   tight non-allocating loop over a reusable stack; it performs
   exactly the float operations of [eval] in the same order, so its
   result is bitwise-identical.

   A peephole pass fuses the patterns the Rydberg channels actually
   produce (a van-der-Waals tail is [c / ((Δx)² + (Δy)²)³]): pushing
   two variables straight into a binary op, squaring a just-computed
   difference, dividing a constant by the whole expression.  Fusion
   only collapses dispatch — each fused op runs the same float
   operations on the same values in the same order as the ops it
   replaces, keeping the bitwise guarantee. *)

type kernel = {
  k_prog : int array; (* (arg lsl 5) lor op *)
  k_consts : float array;
  k_depth : int; (* stack slots needed (upper bound after fusion) *)
  k_max_var : int; (* largest variable id read; -1 when closed *)
}

let op_const = 0
and op_var = 1
and op_neg = 2
and op_add = 3
and op_sub = 4
and op_mul = 5
and op_div = 6
and op_pow = 7
and op_sin = 8
and op_cos = 9

(* fused superinstructions, introduced by the peephole pass only *)
let op_vv_add = 10 (* push env.(a) + env.(b); arg = (a lsl 24) lor b *)
and op_var_add = 14 (* top <- top + env.(arg) *)
and op_const_add = 18 (* top <- top + consts.(arg) *)
and op_sq = 22 (* top <- top², ≡ pow 2 *)
and op_cube = 23 (* top <- top·(top·top), ≡ pow 3 *)
and op_dsq = 24 (* push (env.(a) - env.(b))²; arg packed as vv *)
and op_crdiv = 25 (* top <- consts.(arg) / top *)
and op_var_sin = 26 (* push sin env.(arg) *)
and op_var_cos = 27

(* variable ids below this fit a fused pair's packed argument *)
let pack_limit = 1 lsl 24

(* [var a; var b; <binop>] → one op; [var b; <binop>] and
   [const c; <binop>] likewise; [vv_sub; pow 2] → [dsq]; pow 2 and
   pow 3 get dedicated ops ([int_pow]'s binary exponentiation performs
   [1.0·(x·x)] and [(1.0·x)·(x·x)] — multiplying by 1.0 is exact, so
   [x·x] and [x·(x·x)] are the same floats); [var a; sin] → [var_sin]. *)
let fuse ops args n =
  let open Stdlib in
  let fop = Array.make (Int.max 1 n) 0 and farg = Array.make (Int.max 1 n) 0 in
  let m = ref 0 in
  let emitf op arg =
    fop.(!m) <- op;
    farg.(!m) <- arg;
    incr m
  in
  let last_is op = !m > 0 && fop.(!m - 1) = op in
  let last2_are o1 o2 = !m > 1 && fop.(!m - 2) = o1 && fop.(!m - 1) = o2 in
  let pack_ok a b = a < pack_limit && b < pack_limit in
  for i = 0 to n - 1 do
    let op = ops.(i) and arg = args.(i) in
    if op >= op_add && op <= op_div then
      if last2_are op_var op_var && pack_ok farg.(!m - 2) farg.(!m - 1) then begin
        let a = farg.(!m - 2) and b = farg.(!m - 1) in
        m := !m - 2;
        emitf (op - op_add + op_vv_add) ((a lsl 24) lor b)
      end
      else if last_is op_var then begin
        let b = farg.(!m - 1) in
        m := !m - 1;
        emitf (op - op_add + op_var_add) b
      end
      else if last_is op_const then begin
        let c = farg.(!m - 1) in
        m := !m - 1;
        emitf (op - op_add + op_const_add) c
      end
      else emitf op arg
    else if op = op_pow && arg = 2 then begin
      if last_is (op_sub - op_add + op_vv_add) then begin
        let p = farg.(!m - 1) in
        m := !m - 1;
        emitf op_dsq p
      end
      else emitf op_sq 0
    end
    else if op = op_pow && arg = 3 then emitf op_cube 0
    else if op = op_sin && last_is op_var then begin
      let a = farg.(!m - 1) in
      m := !m - 1;
      emitf op_var_sin a
    end
    else if op = op_cos && last_is op_var then begin
      let a = farg.(!m - 1) in
      m := !m - 1;
      emitf op_var_cos a
    end
    else emitf op arg
  done;
  Array.init !m (fun i -> (farg.(i) lsl 5) lor (fop.(i) land 31))

let compile_raw ~fused e =
  let open Stdlib in
  let ops = ref [] and args = ref [] and count = ref 0 in
  let consts = ref [] and n_consts = ref 0 in
  let emit op arg =
    ops := op :: !ops;
    args := arg :: !args;
    incr count
  in
  let add_const x =
    consts := x :: !consts;
    incr n_consts;
    !n_consts - 1
  in
  let max_var = ref (-1) in
  let depth = ref 0 and cur = ref 0 in
  let push () =
    incr cur;
    if !cur > !depth then depth := !cur
  in
  let rec go = function
    | Const x ->
        emit op_const (add_const x);
        push ()
    | Var id ->
        emit op_var id;
        if id > !max_var then max_var := id;
        push ()
    | Neg a -> go a; emit op_neg 0
    | Add (a, b) -> go a; go b; emit op_add 0; decr cur
    | Sub (a, b) -> go a; go b; emit op_sub 0; decr cur
    | Mul (a, b) -> go a; go b; emit op_mul 0; decr cur
    | Div (Const c, b) ->
        (* [c / expr] in one dispatch; same division, same operand order *)
        let ci = add_const c in
        push ();
        go b;
        emit op_crdiv ci;
        decr cur
    | Div (a, b) -> go a; go b; emit op_div 0; decr cur
    | Pow_int (a, n) -> go a; emit op_pow n
    | Sin a -> go a; emit op_sin 0
    | Cos a -> go a; emit op_cos 0
  in
  go e;
  let n = !count in
  let op_arr = Array.make (Int.max 1 n) 0 and arg_arr = Array.make (Int.max 1 n) 0 in
  List.iteri (fun i op -> op_arr.(n - 1 - i) <- op) !ops;
  List.iteri (fun i a -> arg_arr.(n - 1 - i) <- a) !args;
  let c_arr = Array.make (Int.max 1 !n_consts) 0.0 in
  List.iteri (fun i c -> c_arr.(!n_consts - 1 - i) <- c) !consts;
  {
    k_prog =
      (if fused then fuse op_arr arg_arr n
       else Array.init n (fun i -> (arg_arr.(i) lsl 5) lor (op_arr.(i) land 31)));
    k_consts = c_arr;
    k_depth = Int.max 1 !depth;
    k_max_var = !max_var;
  }

(* Test-mode verification point: [Qturbo_analysis.Kernel_check] installs
   a verifier here so every kernel the pipeline compiles is checked at
   birth.  Default is a no-op — production builds pay nothing. *)
let no_hook _ _ = ()
let compile_hook : (t -> kernel -> unit) ref = ref no_hook

let compile e =
  let k = compile_raw ~fused:true e in
  !compile_hook e k;
  k

let compile_unfused e =
  let k = compile_raw ~fused:false e in
  !compile_hook e k;
  k

let kernel_length k = Array.length k.k_prog
let kernel_max_var k = k.k_max_var

(* ---- templates ------------------------------------------------------- *)

(* A channel shape over local variables 0..k-1, compiled once.  [id] is
   the template's identity for the per-pass tables below; it is unique
   among the templates one process declares. *)
type template = { id : int; expr : t; arity : int; kernel : kernel }

let next_template_id = Atomic.make 0

let template e =
  let open Stdlib in
  let vs = vars e in
  List.iteri
    (fun l v ->
      if v <> l then
        invalid_arg "Expr.template: variables must be exactly 0 .. k-1")
    vs;
  {
    id = Atomic.fetch_and_add next_template_id 1;
    expr = e;
    arity = List.length vs;
    kernel = compile e;
  }

let template_expr tpl = tpl.expr

(* Variables renamed to 0..k-1 in left-to-right first-occurrence order.
   The renaming is a linear scan: a channel reads a handful of
   variables. *)
let split e =
  let open Stdlib in
  let seen = ref [] and k = ref 0 in
  let local g =
    let rec find = function
      | [] ->
          let l = !k in
          seen := (g, l) :: !seen;
          incr k;
          l
      | (g', l) :: rest -> if g' = g then l else find rest
    in
    find !seen
  in
  (* explicit lets: constructor arguments evaluate right to left *)
  let rec go e =
    match e with
    | Const _ -> e
    | Var g -> Var (local g)
    | Neg a -> Neg (go a)
    | Add (a, b) -> let a = go a in Add (a, go b)
    | Sub (a, b) -> let a = go a in Sub (a, go b)
    | Mul (a, b) -> let a = go a in Mul (a, go b)
    | Div (a, b) -> let a = go a in Div (a, go b)
    | Pow_int (a, n) -> Pow_int (go a, n)
    | Sin a -> Sin (go a)
    | Cos a -> Cos (go a)
  in
  let local_e = go e in
  let ids = Array.make !k 0 in
  List.iter (fun (g, l) -> ids.(l) <- g) !seen;
  (template local_e, ids)

(* A kernel compiled from a template, its variable fields rewritten
   through [ids]: [op_var], [var_op], [var_sin] and [var_cos] carry
   one id, [vv] and [dsq] a packed pair.  [deriv_raw], [simplify] and
   [compile_raw] only test ids for equality, and the fusion pass only
   bounds them ([pack_ok]), so when every id is below [pack_limit] this
   is the kernel [compile] gives the renamed expression, word for word.
   The constant table is shared: kernels are never mutated. *)
let relabel k ids =
  let open Stdlib in
  let src = k.k_prog in
  let prog = Array.make (Array.length src) 0 in
  let max_var = ref (-1) in
  for pc = 0 to Array.length src - 1 do
    let word = src.(pc) in
    let op = word land 31 and arg = word asr 5 in
    prog.(pc) <-
      (if op = op_var || (op >= op_var_add && op < op_const_add)
          || op = op_var_sin || op = op_var_cos
       then begin
         let g = ids.(arg) in
         if g > !max_var then max_var := g;
         (g lsl 5) lor op
       end
       else if (op >= op_vv_add && op < op_var_add) || op = op_dsq then begin
         let a = ids.(arg lsr 24) and b = ids.(arg land 0xffffff) in
         if a > !max_var then max_var := a;
         if b > !max_var then max_var := b;
         (((a lsl 24) lor b) lsl 5) lor op
       end
       else word)
  done;
  { k with k_prog = prog; k_max_var = !max_var }

(* Relabeling commutes with [deriv] only for a one-to-one renaming: two
   locals mapped onto one id would need the sum of their derivatives. *)
let check_ids who tpl ids =
  let open Stdlib in
  let k = Array.length ids in
  if k <> tpl.arity then
    invalid_arg
      (Printf.sprintf "Expr.%s: %d ids for a template of arity %d" who k
         tpl.arity);
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      if ids.(a) = ids.(b) then
        invalid_arg (Printf.sprintf "Expr.%s: id %d repeats" who ids.(a))
    done
  done

let wide ids = Array.exists (fun g -> g >= pack_limit) ids
let instance_expr tpl ids = map_vars (fun l -> ids.(l)) tpl.expr

(* the instance expression is built only for a direct compile or an
   installed hook *)
let instance tpl ids =
  check_ids "instance" tpl ids;
  if wide ids then compile (instance_expr tpl ids)
  else begin
    let k = relabel tpl.kernel ids in
    if !compile_hook != no_hook then !compile_hook (instance_expr tpl ids) k;
    k
  end

(* Tables confined to one pass over one device.  A template read back
   by [Marshal] keeps the id it was written with, so a hit is confirmed
   by physical equality and a stranger sharing the id replaces it. *)
module Template_memo = struct
  type 'a t = (int, template * 'a) Hashtbl.t

  let create () : 'a t = Hashtbl.create 16

  let find_or_add (tbl : 'a t) tpl make =
    match Hashtbl.find_opt tbl tpl.id with
    | Some (t, v) when t == tpl -> v
    | Some _ | None ->
        let v = make () in
        Hashtbl.replace tbl tpl.id (tpl, v);
        v
end

module Deriv_table = struct
  (* per local variable of a template: the derivative in local ids and
     its compiled kernel, [None] when it simplifies to zero *)
  type table = (t * kernel) option array Template_memo.t

  let create () : table = Template_memo.create ()

  let direct ~wrt e =
    List.filter_map
      (fun v ->
        if not (wrt v) then None
        else match deriv e v with Const 0.0 -> None | d -> Some (v, compile d))
      (vars e)

  let kernels table ~wrt tpl ids =
    check_ids "Deriv_table.kernels" tpl ids;
    if wide ids then direct ~wrt (instance_expr tpl ids)
    else begin
      let derivs =
        Template_memo.find_or_add table tpl (fun () ->
            Array.init tpl.arity (fun l ->
                match deriv tpl.expr l with
                | Const 0.0 -> None
                | d -> Some (d, compile_raw ~fused:true d)))
      in
      (* the relabeled source is built only for an installed hook *)
      let hooked = !compile_hook != no_hook in
      List.filter_map
        (fun l ->
          match derivs.(l) with
          | Some (d, k) when wrt ids.(l) ->
              let k = relabel k ids in
              if hooked then !compile_hook (map_vars (fun l -> ids.(l)) d) k;
              Some (ids.(l), k)
          | Some _ | None -> None)
        (List.sort
           (fun a b -> Int.compare ids.(a) ids.(b))
           (List.init tpl.arity Fun.id))
    end
end

(* ---- typed IR view --------------------------------------------------- *)

type binop = B_add | B_sub | B_mul | B_div

type vm_instr =
  | K_const of int
  | K_var of int
  | K_neg
  | K_binop of binop
  | K_pow of int
  | K_sin
  | K_cos
  | K_vv of binop * int * int
  | K_var_op of binop * int
  | K_const_op of binop * int
  | K_sq
  | K_cube
  | K_dsq of int * int
  | K_crdiv of int
  | K_var_sin of int
  | K_var_cos of int
  | K_unknown of { op : int; arg : int }

let binop_of_offset = function
  | 0 -> B_add
  | 1 -> B_sub
  | 2 -> B_mul
  | _ -> B_div

let offset_of_binop = function B_add -> 0 | B_sub -> 1 | B_mul -> 2 | B_div -> 3

let decode_instr instr =
  let open Stdlib in
  let arg = instr asr 5 and op = instr land 31 in
  if op = op_const then K_const arg
  else if op = op_var then K_var arg
  else if op = op_neg then K_neg
  else if op >= op_add && op <= op_div then K_binop (binop_of_offset (op - op_add))
  else if op = op_pow then K_pow arg
  else if op = op_sin then K_sin
  else if op = op_cos then K_cos
  else if op >= op_vv_add && op < op_var_add then
    K_vv (binop_of_offset (op - op_vv_add), arg lsr 24, arg land 0xffffff)
  else if op >= op_var_add && op < op_const_add then
    K_var_op (binop_of_offset (op - op_var_add), arg)
  else if op >= op_const_add && op < op_sq then
    K_const_op (binop_of_offset (op - op_const_add), arg)
  else if op = op_sq then K_sq
  else if op = op_cube then K_cube
  else if op = op_dsq then K_dsq (arg lsr 24, arg land 0xffffff)
  else if op = op_crdiv then K_crdiv arg
  else if op = op_var_sin then K_var_sin arg
  else if op = op_var_cos then K_var_cos arg
  else K_unknown { op; arg }

let encode_instr i =
  let open Stdlib in
  let pack op arg = (arg lsl 5) lor (op land 31) in
  match i with
  | K_const ci -> pack op_const ci
  | K_var v -> pack op_var v
  | K_neg -> pack op_neg 0
  | K_binop b -> pack (op_add + offset_of_binop b) 0
  | K_pow n -> pack op_pow n
  | K_sin -> pack op_sin 0
  | K_cos -> pack op_cos 0
  | K_vv (b, x, y) -> pack (op_vv_add + offset_of_binop b) ((x lsl 24) lor y)
  | K_var_op (b, v) -> pack (op_var_add + offset_of_binop b) v
  | K_const_op (b, ci) -> pack (op_const_add + offset_of_binop b) ci
  | K_sq -> pack op_sq 0
  | K_cube -> pack op_cube 0
  | K_dsq (x, y) -> pack op_dsq ((x lsl 24) lor y)
  | K_crdiv ci -> pack op_crdiv ci
  | K_var_sin v -> pack op_var_sin v
  | K_var_cos v -> pack op_var_cos v
  | K_unknown { op; arg } -> pack op arg

let kernel_view k = Array.map decode_instr k.k_prog
let kernel_consts k = Array.copy k.k_consts
let kernel_depth k = k.k_depth

let kernel_of_view prog ~consts ~depth ~max_var =
  {
    k_prog = Array.map encode_instr prog;
    k_consts = Array.copy consts;
    k_depth = depth;
    k_max_var = max_var;
  }

(* per-domain evaluation stack: kernels are shared across pool domains,
   so the scratch must be domain-local *)
let stack_key = Domain.DLS.new_key (fun () -> ref (Array.make 16 0.0))

let[@inline] stack depth =
  let open Stdlib in
  let cell = Domain.DLS.get stack_key in
  if Array.length !cell < depth then
    cell := Array.make (Int.max depth (2 * Array.length !cell)) 0.0;
  !cell

(* The one dispatch loop: run the postfix words [prog.(lo) .. prog.(hi-1)]
   on the stack [st], leaving the value in [st.(0)].  Both {!eval_kernel}
   and {!Batch} call it; [@inline] copies it into each caller even
   without flambda, so neither pays a call per row. *)
let[@inline] exec prog consts ~env st lo hi =
  let open Stdlib in
  let sp = ref 0 in
  for pc = lo to hi - 1 do
    let instr = Array.unsafe_get prog pc in
    let arg = instr asr 5 in
    match instr land 31 with
    | 0 (* const *) ->
        Array.unsafe_set st !sp (Array.unsafe_get consts arg);
        incr sp
    | 1 (* var *) ->
        Array.unsafe_set st !sp env.(arg);
        incr sp
    | 2 (* neg *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (-.Array.unsafe_get st i)
    | 3 (* add *) ->
        decr sp;
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i +. Array.unsafe_get st !sp)
    | 4 (* sub *) ->
        decr sp;
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i -. Array.unsafe_get st !sp)
    | 5 (* mul *) ->
        decr sp;
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i *. Array.unsafe_get st !sp)
    | 6 (* div *) ->
        decr sp;
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i /. Array.unsafe_get st !sp)
    | 7 (* pow *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (int_pow (Array.unsafe_get st i) arg)
    | 8 (* sin *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (sin (Array.unsafe_get st i))
    | 9 (* cos *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (cos (Array.unsafe_get st i))
    (* fused ops: same float operations, same order, one dispatch.
       Variable reads stay bounds-checked, and [a] before [b], so a
       short [env] raises exactly where the unfused program did. *)
    | 10 (* vv_add *) ->
        let va = env.(arg lsr 24) in
        let vb = env.(arg land 0xffffff) in
        Array.unsafe_set st !sp (va +. vb);
        incr sp
    | 11 (* vv_sub *) ->
        let va = env.(arg lsr 24) in
        let vb = env.(arg land 0xffffff) in
        Array.unsafe_set st !sp (va -. vb);
        incr sp
    | 12 (* vv_mul *) ->
        let va = env.(arg lsr 24) in
        let vb = env.(arg land 0xffffff) in
        Array.unsafe_set st !sp (va *. vb);
        incr sp
    | 13 (* vv_div *) ->
        let va = env.(arg lsr 24) in
        let vb = env.(arg land 0xffffff) in
        Array.unsafe_set st !sp (va /. vb);
        incr sp
    | 14 (* var_add *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i +. env.(arg))
    | 15 (* var_sub *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i -. env.(arg))
    | 16 (* var_mul *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i *. env.(arg))
    | 17 (* var_div *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i (Array.unsafe_get st i /. env.(arg))
    | 18 (* const_add *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i
          (Array.unsafe_get st i +. Array.unsafe_get consts arg)
    | 19 (* const_sub *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i
          (Array.unsafe_get st i -. Array.unsafe_get consts arg)
    | 20 (* const_mul *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i
          (Array.unsafe_get st i *. Array.unsafe_get consts arg)
    | 21 (* const_div *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i
          (Array.unsafe_get st i /. Array.unsafe_get consts arg)
    | 22 (* sq *) ->
        let i = !sp - 1 in
        let x = Array.unsafe_get st i in
        Array.unsafe_set st i (x *. x)
    | 23 (* cube *) ->
        let i = !sp - 1 in
        let x = Array.unsafe_get st i in
        Array.unsafe_set st i (x *. (x *. x))
    | 24 (* dsq *) ->
        let va = env.(arg lsr 24) in
        let vb = env.(arg land 0xffffff) in
        let d = va -. vb in
        Array.unsafe_set st !sp (d *. d);
        incr sp
    | 25 (* crdiv *) ->
        let i = !sp - 1 in
        Array.unsafe_set st i
          (Array.unsafe_get consts arg /. Array.unsafe_get st i)
    | 26 (* var_sin *) ->
        Array.unsafe_set st !sp (sin env.(arg));
        incr sp
    | 27 (* var_cos *) ->
        Array.unsafe_set st !sp (cos env.(arg));
        incr sp
    | _ -> assert false
  done

let eval_kernel k ~env =
  let st = stack k.k_depth in
  exec k.k_prog k.k_consts ~env st 0 (Array.length k.k_prog);
  st.(0)

(* ---- batched evaluation ---------------------------------------------- *)

(* Many kernels packed into one flat program so a residual sweep over a
   component's channels runs as a single loop writing into a float
   array — no per-row closure dispatch, no boxed intermediate values.
   Each row runs [exec] over its own words, exactly what [eval_kernel]
   runs on its kernel, so every output is bitwise-identical to the
   per-kernel evaluator. *)
module Batch = struct
  open Stdlib

  type t = {
    b_prog : int array;  (* concatenated programs, const args rebased *)
    b_row_ptr : int array;  (* row r occupies [b_row_ptr.(r), b_row_ptr.(r+1)) *)
    b_consts : float array;  (* concatenated constant tables *)
    b_depth : int;  (* max stack depth over all rows *)
  }

  let length b = Array.length b.b_row_ptr - 1

  (* opcodes whose argument indexes the constant table — the only words
     that need rebasing when tables are concatenated (the vv/dsq pairs
     pack variable ids, everything else is a variable id or a literal) *)
  let reads_consts op =
    op = op_const || (op >= op_const_add && op <= op_const_add + 3)
    || op = op_crdiv

  let pack kernels =
    let rows = Array.length kernels in
    let row_ptr = Array.make (rows + 1) 0 in
    let total_prog = ref 0 and total_consts = ref 0 in
    Array.iter
      (fun k ->
        total_prog := !total_prog + Array.length k.k_prog;
        total_consts := !total_consts + Array.length k.k_consts)
      kernels;
    let prog = Array.make (Stdlib.max 1 !total_prog) 0 in
    let consts = Array.make (Stdlib.max 1 !total_consts) 0.0 in
    let depth = ref 1 in
    let pp = ref 0 and cp = ref 0 in
    Array.iteri
      (fun r k ->
        row_ptr.(r) <- !pp;
        let off = !cp in
        Array.iter
          (fun word ->
            let op = word land 31 and arg = word asr 5 in
            prog.(!pp) <-
              (if reads_consts op then ((arg + off) lsl 5) lor op else word);
            incr pp)
          k.k_prog;
        Array.blit k.k_consts 0 consts off (Array.length k.k_consts);
        cp := off + Array.length k.k_consts;
        if k.k_depth > !depth then depth := k.k_depth)
      kernels;
    row_ptr.(rows) <- !pp;
    { b_prog = prog; b_row_ptr = row_ptr; b_consts = consts; b_depth = !depth }

  let eval b ~env ~out ~lo ~hi =
    if lo < 0 || hi > length b || lo > hi then
      invalid_arg "Expr.Batch.eval: row range outside the batch";
    if Array.length out < hi then
      invalid_arg "Expr.Batch.eval: output array shorter than the range";
    let st = stack b.b_depth in
    let prog = b.b_prog and consts = b.b_consts and row_ptr = b.b_row_ptr in
    for r = lo to hi - 1 do
      exec prog consts ~env st
        (Array.unsafe_get row_ptr r)
        (Array.unsafe_get row_ptr (r + 1));
      Array.unsafe_set out r (Array.unsafe_get st 0)
    done
end

let rec pp ppf = function
  | Const x -> Format.fprintf ppf "%g" x
  | Var id -> Format.fprintf ppf "v%d" id
  | Neg a -> Format.fprintf ppf "-(%a)" pp a
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Pow_int (a, n) -> Format.fprintf ppf "(%a)^%d" pp a n
  | Sin a -> Format.fprintf ppf "sin(%a)" pp a
  | Cos a -> Format.fprintf ppf "cos(%a)" pp a
