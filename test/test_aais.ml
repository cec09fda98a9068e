(* Tests for qturbo.aais: variables, symbolic expressions, instruction
   hints, the Rydberg/Heisenberg instruction sets, device specs, pulses. *)

open Qturbo_aais
open Qturbo_pauli

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

(* ---- Variable ---- *)

let test_variable_pool () =
  let pool = Variable.create_pool () in
  let a = Variable.fresh pool ~name:"a" ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:2.0 () in
  let b = Variable.fresh pool ~name:"b" ~kind:Variable.Runtime_fixed ~init:5.0 () in
  Alcotest.(check int) "ids dense" 0 a.Variable.id;
  Alcotest.(check int) "ids dense 2" 1 b.Variable.id;
  Alcotest.(check int) "count" 2 (Variable.count pool);
  check_close "default init = midpoint" 1e-12 1.0 a.Variable.init;
  check_close "explicit init" 1e-12 5.0 b.Variable.init;
  Alcotest.(check bool) "kinds" true
    (Variable.is_dynamic a && Variable.is_fixed b);
  let env = Variable.initial_env pool in
  Alcotest.(check (array (float 1e-12))) "initial env" [| 1.0; 5.0 |] env

let test_variable_init_clamped () =
  let pool = Variable.create_pool () in
  let v = Variable.fresh pool ~name:"v" ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:1.0 ~init:9.0 () in
  check_close "clamped" 1e-12 1.0 v.Variable.init

(* the CLI's dangling-channel injection extends a copy, because the
   resolved instance it starts from may be shared *)
let test_copy_pool_leaves_original () =
  let aais = (Rydberg.build ~spec:Device.aquila_paper ~n:3).Rydberg.aais in
  let pool = aais.Aais.pool in
  let count = Variable.count pool and digest = Shape.digest aais in
  let copy = Variable.copy_pool pool in
  let v =
    Variable.fresh copy ~name:"extra" ~kind:Variable.Runtime_dynamic ~lo:0.0
      ~hi:1.0 ()
  in
  Alcotest.(check int) "the copy continues the ids" count v.Variable.id;
  Alcotest.(check int) "the copy grew" (count + 1) (Variable.count copy);
  Alcotest.(check int) "the original did not" count (Variable.count pool);
  Alcotest.(check string) "the AAIS digest is unchanged" (Digest.to_hex digest)
    (Digest.to_hex (Shape.digest aais))

(* ---- Expr ---- *)

let env_of lst =
  let n = List.fold_left (fun acc (i, _) -> Int.max acc (i + 1)) 0 lst in
  let env = Array.make n 0.0 in
  List.iter (fun (i, x) -> env.(i) <- x) lst;
  env

let test_expr_eval () =
  let e = Expr.(Add (Mul (Const 2.0, Var 0), Pow_int (Var 1, 3))) in
  check_close "eval" 1e-12 ((2.0 *. 1.5) +. 8.0) (Expr.eval e ~env:(env_of [ (0, 1.5); (1, 2.0) ]))

let test_expr_eval_trig () =
  let e = Expr.(Mul (Sin (Var 0), Cos (Var 0))) in
  check_close "trig" 1e-12 (sin 0.7 *. cos 0.7) (Expr.eval e ~env:(env_of [ (0, 0.7) ]))

let test_expr_negative_power () =
  let e = Expr.(Pow_int (Var 0, -6)) in
  check_close "inverse sixth" 1e-12 (1.0 /. 64.0) (Expr.eval e ~env:(env_of [ (0, 2.0) ]))

(* [Expr.int_pow] is a loop; the recursion it replaced is the
   reference: the same multiplications in the same order, so every bit
   agrees, IEEE special values included *)
let int_pow_reference x n =
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (acc *. base) (base *. base) (n asr 1)
    else go acc (base *. base) (n asr 1)
  in
  if n >= 0 then go 1.0 x n else 1.0 /. go 1.0 x (-n)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let specials = [ 0.0; -0.0; infinity; neg_infinity; nan ]

let prop_int_pow_matches_recursion =
  QCheck.Test.make ~name:"int_pow loop = recursive reference, bit for bit"
    ~count:1000
    QCheck.(
      pair
        (oneof [ float; float_range (-4.0) 4.0; oneofl specials ])
        (int_range (-12) 12))
    (fun (x, n) -> same_bits (Expr.int_pow x n) (int_pow_reference x n))

let test_int_pow_special_values () =
  List.iter
    (fun x ->
      for n = -12 to 12 do
        if not (same_bits (Expr.int_pow x n) (int_pow_reference x n)) then
          Alcotest.failf "int_pow %h %d = %h, reference %h" x n
            (Expr.int_pow x n) (int_pow_reference x n)
      done)
    specials

let test_expr_vars () =
  let e = Expr.(Div (Const 1.0, Pow_int (Sub (Var 3, Var 1), 6))) in
  Alcotest.(check (list int)) "vars" [ 1; 3 ] (Expr.vars e);
  Alcotest.(check bool) "depends" true (Expr.depends_on e 3);
  Alcotest.(check bool) "independent" false (Expr.depends_on e 0)

let test_expr_simplify () =
  let open Expr in
  Alcotest.(check bool) "0*x" true (simplify (Mul (Const 0.0, Var 1)) = Const 0.0);
  Alcotest.(check bool) "x+0" true (simplify (Add (Var 1, Const 0.0)) = Var 1);
  Alcotest.(check bool) "x^1" true (simplify (Pow_int (Var 2, 1)) = Var 2);
  Alcotest.(check bool) "const fold" true
    (simplify (Add (Const 2.0, Const 3.0)) = Const 5.0);
  Alcotest.(check bool) "neg neg" true (simplify (Neg (Neg (Var 0))) = Var 0)

let test_expr_deriv_polynomial () =
  (* d/dx (x - y)^6 = 6 (x - y)^5 *)
  let e = Expr.(Pow_int (Sub (Var 0, Var 1), 6)) in
  let d = Expr.deriv e 0 in
  let env = env_of [ (0, 3.0); (1, 1.0) ] in
  check_close "deriv" 1e-9 (6.0 *. (2.0 ** 5.0)) (Expr.eval d ~env)

let test_expr_deriv_trig () =
  let e = Expr.(Mul (Var 0, Cos (Var 1))) in
  let d0 = Expr.deriv e 0 and d1 = Expr.deriv e 1 in
  let env = env_of [ (0, 2.0); (1, 0.3) ] in
  check_close "d/da" 1e-12 (cos 0.3) (Expr.eval d0 ~env);
  check_close "d/dphi" 1e-12 (-2.0 *. sin 0.3) (Expr.eval d1 ~env)

let test_expr_deriv_quotient () =
  (* d/dx (c / x^6) = -6 c / x^7 *)
  let e = Expr.(Div (Const 100.0, Pow_int (Var 0, 6))) in
  let d = Expr.deriv e 0 in
  let env = env_of [ (0, 2.0) ] in
  check_close "quotient rule" 1e-9 (-6.0 *. 100.0 /. (2.0 ** 7.0)) (Expr.eval d ~env)

let test_expr_deriv_matches_numeric () =
  let rng = Qturbo_util.Rng.create ~seed:8L in
  let e =
    Expr.(
      Add
        ( Div (Const 3.0, Pow_int (Add (Pow_int (Var 0, 2), Pow_int (Var 1, 2)), 3)),
          Mul (Var 0, Sin (Var 1)) ))
  in
  for _ = 1 to 20 do
    let x = Qturbo_util.Rng.uniform rng ~lo:1.0 ~hi:3.0 in
    let y = Qturbo_util.Rng.uniform rng ~lo:1.0 ~hi:3.0 in
    let env = env_of [ (0, x); (1, y) ] in
    let h = 1e-6 in
    let env_h = env_of [ (0, x +. h); (1, y) ] in
    let numeric = (Expr.eval e ~env:env_h -. Expr.eval e ~env) /. h in
    let symbolic = Expr.eval (Expr.deriv e 0) ~env in
    if Float.abs (numeric -. symbolic) > 1e-3 *. Float.max 1.0 (Float.abs symbolic)
    then Alcotest.failf "deriv mismatch at (%.3f, %.3f)" x y
  done

let test_expr_is_linear () =
  Alcotest.(check (option (float 1e-12))) "k*v"
    (Some 0.5)
    (Expr.is_linear_in Expr.(Mul (Const 0.5, Var 2)) 2);
  Alcotest.(check (option (float 1e-12))) "bare var" (Some 1.0)
    (Expr.is_linear_in (Expr.Var 1) 1);
  Alcotest.(check (option (float 1e-12))) "wrong var" None
    (Expr.is_linear_in Expr.(Mul (Const 0.5, Var 2)) 1);
  Alcotest.(check (option (float 1e-12))) "nonlinear" None
    (Expr.is_linear_in Expr.(Pow_int (Var 0, 2)) 0)

(* ---- Expression templates ---- *)

let bits = Int64.bits_of_float

(* what [Expr.Deriv_table.kernels] must reproduce *)
let direct_derivs ~wrt e =
  List.filter_map
    (fun v ->
      if not (wrt v) then None
      else
        match Expr.deriv e v with
        | Expr.Const 0.0 -> None
        | d -> Some (v, Expr.compile d))
    (Expr.vars e)

let same_kernel a b =
  Expr.kernel_view a = Expr.kernel_view b
  && Array.length (Expr.kernel_consts a) = Array.length (Expr.kernel_consts b)
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       (Expr.kernel_consts a) (Expr.kernel_consts b)
  && Expr.kernel_depth a = Expr.kernel_depth b
  && Expr.kernel_max_var a = Expr.kernel_max_var b

let same_derivs a b =
  List.length a = List.length b
  && List.for_all2 (fun (v, k) (w, k') -> v = w && same_kernel k k') a b

let test_template_view () =
  let e = Expr.(Div (Const 2.0, Pow_int (Sub (Var 7, Var 3), 6)) + Var 7) in
  let tpl, ids = Expr.split e in
  Alcotest.(check (array int)) "first-occurrence order" [| 7; 3 |] ids;
  Alcotest.(check bool) "renamed" true
    (Expr.template_expr tpl
    = Expr.(Div (Const 2.0, Pow_int (Sub (Var 0, Var 1), 6)) + Var 0));
  let back = Expr.instance_expr tpl ids and k = Expr.instance tpl ids in
  Alcotest.(check bool) "maps back" true (back = e);
  Alcotest.(check bool) "instance kernel = compile" true
    (same_kernel k (Expr.compile e))

let test_template_rejects_bad_ids () =
  let tpl = Expr.template Expr.(Var 0 - Var 1) in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "a repeated id" (fun () -> Expr.instance tpl [| 4; 4 |]);
  raises "too few ids" (fun () -> Expr.instance tpl [| 4 |]);
  raises "a repeated id in the derivative table" (fun () ->
      Expr.Deriv_table.kernels (Expr.Deriv_table.create ())
        ~wrt:(fun _ -> true) tpl [| 2; 2 |]);
  raises "a gap in the local variables" (fun () ->
      Expr.template Expr.(Var 0 * Var 2))

(* [Div (v, ±0.0)] keeps its constant through [simplify], and the
   derivative's constant table carries the sign: two templates that
   differ only there each get their own kernels *)
let test_signed_zero_templates () =
  let tbl = Expr.Deriv_table.create () in
  let wrt _ = true in
  let pos = Expr.template Expr.(Div (Var 0, Const 0.0))
  and neg = Expr.template Expr.(Div (Var 0, Const (-0.0))) in
  let kpos = Expr.Deriv_table.kernels tbl ~wrt pos [| 0 |] in
  let kneg = Expr.Deriv_table.kernels tbl ~wrt neg [| 1 |] in
  let direct tpl ids = direct_derivs ~wrt (Expr.instance_expr tpl ids) in
  Alcotest.(check bool) "+0.0 channel" true (same_derivs kpos (direct pos [| 0 |]));
  Alcotest.(check bool) "-0.0 channel" true (same_derivs kneg (direct neg [| 1 |]));
  match (kpos, kneg) with
  | [ (_, a) ], [ (_, b) ] ->
      Alcotest.(check bool) "different kernels" false
        (Array.for_all2
           (fun x y -> Int64.equal (bits x) (bits y))
           (Expr.kernel_consts a) (Expr.kernel_consts b))
  | _ -> Alcotest.fail "expected one derivative per channel"

(* ids at or above 2^24 do not fit the fused pair encoding, so the
   fusion pass keeps them apart; such instances compile directly *)
let test_template_wide_ids () =
  let wide = 1 lsl 24 in
  let tpl = Expr.template Expr.(Div (Const 3.0, Pow_int (Sub (Var 0, Var 1), 2))) in
  let ids = [| wide; 5 |] in
  let e = Expr.instance_expr tpl ids in
  let tbl = Expr.Deriv_table.create () in
  let wrt _ = true in
  ignore (Expr.Deriv_table.kernels tbl ~wrt tpl [| 1; 2 |]);
  Alcotest.(check bool) "fallback equals direct" true
    (same_derivs (Expr.Deriv_table.kernels tbl ~wrt tpl ids) (direct_derivs ~wrt e));
  Alcotest.(check bool) "instance kernel = compile" true
    (same_kernel (Expr.instance tpl ids) (Expr.compile e))

let const_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-10.0) 10.0;
        oneofl
          [
            0.0; -0.0; 1.0; -1.0;
            Int64.float_of_bits 0x7ff8000000000001L;
            Int64.float_of_bits 0xfff8000000000abcL;
          ];
      ])

(* expressions over local variables 0..3 *)
let template_expr_gen =
  let open QCheck.Gen in
  sized_size (int_range 1 5)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               map (fun c -> Expr.Const c) const_gen;
               map (fun v -> Expr.Var v) (int_range 0 3);
             ]
         in
         if depth = 0 then leaf
         else
           let sub = self (depth - 1) in
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> Expr.Add (a, b)) sub sub);
               (2, map2 (fun a b -> Expr.Sub (a, b)) sub sub);
               (2, map2 (fun a b -> Expr.Mul (a, b)) sub sub);
               (2, map2 (fun a b -> Expr.Div (a, b)) sub sub);
               (1, map (fun a -> Expr.Neg a) sub);
               (2, map2 (fun a p -> Expr.Pow_int (a, p)) sub (int_range (-4) 6));
               (1, map (fun a -> Expr.Sin a) sub);
               (1, map (fun a -> Expr.Cos a) sub);
             ])

(* an injective renaming of 0..3, now and then onto ids past 2^24 *)
let renaming_gen =
  let narrow = [ 0; 1; 2; 3; 4; 5; 11; 40; 977; (1 lsl 24) - 1 ] in
  QCheck.Gen.(
    map
      (fun ids -> Array.of_list (List.filteri (fun i _ -> i < 4) ids))
      (frequency
         [
           (4, shuffle_l narrow);
           (1, shuffle_l ((1 lsl 24) :: ((1 lsl 24) + 3) :: narrow));
         ]))

(* the first renaming primes the table, the second is served from it;
   [skip] leaves one id out of [wrt], as a pinned coordinate is.  The
   instance kernels must be the direct compiles too. *)
let prop_template_kernels_match_direct =
  QCheck.Test.make ~name:"template-relabeled derivative kernels = direct compile"
    ~count:500
    (QCheck.make
       QCheck.Gen.(quad template_expr_gen renaming_gen renaming_gen (int_range 0 3)))
    (fun (e, r1, r2, skip) ->
      let tbl = Expr.Deriv_table.create () in
      let tpl, vars = Expr.split e in
      let ids1 = Array.map (fun v -> r1.(v)) vars
      and ids2 = Array.map (fun v -> r2.(v)) vars in
      let e1 = Expr.instance_expr tpl ids1 and e2 = Expr.instance_expr tpl ids2 in
      let i1 = Expr.instance tpl ids1 and i2 = Expr.instance tpl ids2 in
      let wrt1 v = v <> r1.(skip) and wrt2 v = v <> r2.(skip) in
      let k1 = Expr.Deriv_table.kernels tbl ~wrt:wrt1 tpl ids1 in
      let k2 = Expr.Deriv_table.kernels tbl ~wrt:wrt2 tpl ids2 in
      compare e1 (Expr.map_vars (fun v -> r1.(v)) e) = 0
      && same_kernel i1 (Expr.compile e1)
      && same_kernel i2 (Expr.compile e2)
      && same_derivs k1 (direct_derivs ~wrt:wrt1 e1)
      && same_derivs k2 (direct_derivs ~wrt:wrt2 e2))

(* The key renderer writes integers digit by digit; it must spell them
   exactly as [string_of_int] does, signs and extremes included. *)
let test_key_integer_spelling () =
  let pool = Variable.create_pool () in
  let v =
    Variable.fresh pool ~name:"v" ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:1.0 ()
  in
  let channel cid n =
    Instruction.channel_of_expr ~cid ~label:"p"
      ~expr:Expr.(Pow_int (Var v.Variable.id, n))
      ~effects:
        [ { Instruction.pstring = Pauli_string.single 1203 Pauli.Z; coeff = 1.0 } ]
      ~hint:Instruction.Hint_generic
  in
  let aais =
    Aais.make ~name:"toy" ~n_qubits:1204 ~pool
      ~instructions:
        [
          Instruction.make ~label:"p"
            ~channels:
              [ channel 0 (-6); channel 1 min_int; channel 2 max_int; channel 3 0;
                channel 4 10; channel 5 (-10) ];
        ]
      ()
  in
  let text = Shape.of_aais aais in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "%S not in the key %S" needle text)
    ([ "#1204#"; "|0 "; "|5 "; "1203Z:" ]
    @ List.map
        (fun n -> "p" ^ string_of_int n ^ "(")
        [ -6; min_int; max_int; 0; 10; -10 ])

(* ---- Every stock channel is its template's instance ---- *)

(* The key renderer as it was before channels carried templates: one
   walk of each channel's own expression tree, floats spelled nibble by
   nibble.  [Shape.of_aais] must give these bytes. *)
module Reference_key = struct
  let add_float buf f =
    let bits = Int64.bits_of_float f in
    if Int64.equal bits 0L then Buffer.add_char buf '0'
    else begin
      let started = ref false in
      for i = 15 downto 0 do
        let nib =
          Int64.to_int (Int64.logand (Int64.shift_right_logical bits (i * 4)) 0xFL)
        in
        if nib <> 0 then started := true;
        if !started then Buffer.add_char buf "0123456789abcdef".[nib]
      done
    end

  let add_int buf n = Buffer.add_string buf (string_of_int n)

  let rec add_expr buf (e : Expr.t) =
    let wrap tag a =
      Buffer.add_string buf tag;
      add_expr buf a;
      Buffer.add_char buf ')'
    and binop op a b =
      Buffer.add_char buf '(';
      add_expr buf a;
      Buffer.add_string buf op;
      add_expr buf b;
      Buffer.add_char buf ')'
    in
    match e with
    | Expr.Const c -> Buffer.add_char buf 'c'; add_float buf c
    | Expr.Var v -> Buffer.add_char buf 'v'; add_int buf v
    | Expr.Neg a -> wrap "n(" a
    | Expr.Add (a, b) -> binop "+" a b
    | Expr.Sub (a, b) -> binop "-" a b
    | Expr.Mul (a, b) -> binop "*" a b
    | Expr.Div (a, b) -> binop "/" a b
    | Expr.Pow_int (a, k) -> wrap ("p" ^ string_of_int k ^ "(") a
    | Expr.Sin a -> wrap "s(" a
    | Expr.Cos a -> wrap "k(" a

  let add_hint buf (h : Instruction.solver_hint) =
    let polar tag amp phase scale =
      Buffer.add_char buf tag;
      add_int buf amp;
      Buffer.add_char buf ',';
      add_int buf phase;
      Buffer.add_char buf ':';
      add_float buf scale
    in
    match h with
    | Instruction.Hint_linear { var; slope } ->
        Buffer.add_char buf 'L';
        add_int buf var;
        Buffer.add_char buf ':';
        add_float buf slope
    | Instruction.Hint_polar_cos { amp; phase; scale } -> polar 'C' amp phase scale
    | Instruction.Hint_polar_sin { amp; phase; scale } -> polar 'S' amp phase scale
    | Instruction.Hint_fixed -> Buffer.add_char buf 'F'
    | Instruction.Hint_generic -> Buffer.add_char buf 'G'

  let add_pstring buf s =
    Pauli_string.iter
      (fun site op ->
        add_int buf site;
        Buffer.add_string buf (Pauli.op_to_string op))
      s

  let render (aais : Aais.t) =
    let buf = Buffer.create 1024 in
    let sp () = Buffer.add_char buf ' ' in
    Buffer.add_string buf aais.Aais.name;
    Buffer.add_char buf '#';
    add_int buf aais.Aais.n_qubits;
    Buffer.add_char buf '#';
    Buffer.add_string buf aais.Aais.fingerprint;
    Option.iter
      (fun (tr : Aais.truncation) ->
        Buffer.add_string buf "#cut ";
        add_float buf tr.Aais.radius;
        sp ();
        add_int buf tr.Aais.kept_pairs;
        sp ();
        add_int buf tr.Aais.dropped_pairs;
        sp ();
        add_float buf tr.Aais.dropped_l1;
        sp ();
        add_float buf tr.Aais.max_dropped)
      aais.Aais.truncation;
    Array.iter
      (fun (v : Variable.t) ->
        Buffer.add_char buf '|';
        add_int buf v.Variable.id;
        sp ();
        Buffer.add_char buf (if Variable.is_fixed v then 'f' else 'd');
        sp ();
        add_float buf v.Variable.bound.Qturbo_optim.Bounds.lo;
        sp ();
        add_float buf v.Variable.bound.Qturbo_optim.Bounds.hi;
        sp ();
        add_float buf v.Variable.init)
      (Aais.variables aais);
    Buffer.add_string buf "##";
    Array.iter
      (fun (c : Instruction.channel) ->
        Buffer.add_char buf '|';
        add_int buf c.Instruction.cid;
        sp ();
        add_expr buf (Instruction.expr c);
        sp ();
        add_hint buf c.Instruction.hint;
        List.iter
          (fun { Instruction.pstring; coeff } ->
            Buffer.add_char buf ';';
            add_pstring buf pstring;
            Buffer.add_char buf ':';
            add_float buf coeff)
          c.Instruction.effects)
      (Aais.channels aais);
    Buffer.contents buf
end

(* The van-der-Waals amplitude [C6 / (4 d⁶)] of pair channel [c] at the
   initial layout, from the atom positions rather than from the
   channel's own expression: a channel whose ids were mapped to the
   wrong coordinates computes another number. *)
let vdw_expected (ryd : Rydberg.t) =
  let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
  let ps = Rydberg.positions ryd ~env in
  fun (c : Instruction.channel) ->
    match (c.Instruction.hint, c.Instruction.effects) with
    | Instruction.Hint_fixed, { Instruction.pstring; _ } :: _ ->
        let sites = ref [] in
        Pauli_string.iter (fun site _ -> sites := site :: !sites) pstring;
        let d2 =
          match !sites with
          | [ j; i ] ->
              let label = Printf.sprintf "vdw(%d,%d)" i j in
              if c.Instruction.label <> label then
                Alcotest.failf "pair channel labeled %S, not %S"
                  c.Instruction.label label;
              let xi, yi = ps.(i) and xj, yj = ps.(j) in
              ((xi -. xj) *. (xi -. xj)) +. ((yi -. yj) *. (yi -. yj))
          | _ -> Alcotest.failf "%s: not a pair channel" c.Instruction.label
        in
        Some (ryd.Rydberg.spec.Device.c6 /. (4.0 *. (d2 *. d2 *. d2)))
    | _ -> None

(* Rydberg on a line and on a plane, under the Auto policy, all pairs
   and a 45 um radius, plus Heisenberg and both ion traps, from 1 to
   1000 sites.  All pairs stops at 300 sites: at 1000 it is half a
   million channels, held at once.  The traps cap their ion count, so
   the nearest-neighbour one has its cap lifted. *)
let stock_devices =
  let relaxed = { Device.aquila_paper with Device.max_extent = 2000.0 } in
  let rydberg ryd = (ryd.Rydberg.aais, vdw_expected ryd) in
  let other aais = (aais, fun _ -> None) in
  List.concat_map
    (fun n ->
      List.concat_map
        (fun geometry ->
          List.filter_map
            (fun cutoff ->
              match cutoff with
              | Rydberg.All_pairs when n > 300 -> None
              | _ ->
                  let spec = Device.with_geometry geometry relaxed in
                  Some (lazy (rydberg (Rydberg.build_cutoff ~cutoff ~spec ~n))))
            [ Rydberg.Auto; Rydberg.All_pairs; Rydberg.Radius 45.0 ])
        [ Device.Line; Device.Plane ]
      @ [
          lazy
            (rydberg
               (Rydberg.build ~spec:(Device.with_control Device.Global relaxed) ~n));
          lazy (other (Heisenberg.build ~spec:Device.heisenberg_default ~n).Heisenberg.aais);
          lazy
            (other
               (Iontrap.build
                  ~spec:{ Device.iontrap_nn with Device.max_ions = 1000 }
                  ~n)
                 .Iontrap.aais);
        ]
      @
      if n <= Device.iontrap_chain.Device.max_ions then
        [ lazy (other (Iontrap.build ~spec:Device.iontrap_chain ~n).Iontrap.aais) ]
      else [])
    [ 1; 2; 5; 23; 93; 150; 300; 1000 ]

let test_stock_channels_are_instances () =
  List.iter
    (fun device ->
      let aais, expected = Lazy.force device in
      let env = Variable.initial_env aais.Aais.pool in
      Array.iter
        (fun (c : Instruction.channel) ->
          let fail what =
            Alcotest.failf "%s, channel %s: %s" aais.Aais.name
              c.Instruction.label what
          in
          if
            not
              (same_kernel c.Instruction.kernel
                 (Expr.compile (Instruction.expr c)))
          then fail "kernel differs from compile";
          match expected c with
          | Some want ->
              let got = Instruction.eval_channel c ~env in
              if Float.abs (got -. want) > 1e-9 *. Float.abs want then
                fail (Printf.sprintf "amplitude %h, expected %h" got want)
          | None -> ())
        (Aais.channels aais);
      if not (String.equal (Shape.of_aais aais) (Reference_key.render aais)) then
        Alcotest.failf "%s: key differs from the tree-walk rendering"
          aais.Aais.name)
    stock_devices

(* The digit scratch of [Shape]'s float rendering against the nibble
   loop, on random bit patterns, NaN payloads, subnormals and zeros. *)
let prop_key_floats_match_reference =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (6, map Int64.float_of_bits ui64);
          (2, map (fun m -> Int64.float_of_bits (Int64.logand m 0x800f_ffff_ffff_ffffL)) ui64);
          (1, map Int64.float_of_bits (map (Int64.logor 0x7ff0_0000_0000_0001L) ui64));
          (1, oneofl [ 0.0; -0.0; 1.0; infinity; neg_infinity; nan; max_float ]);
        ])
  in
  QCheck.Test.make ~name:"key floats = nibble-by-nibble rendering" ~count:5000
    (QCheck.make
       ~print:(fun cs -> String.concat " " (List.map (Printf.sprintf "%h") cs))
       (QCheck.Gen.list_size (QCheck.Gen.return 8) gen))
    (fun cs ->
      let pool = Variable.create_pool () in
      let channels =
        List.mapi
          (fun cid c ->
            Instruction.channel_of_expr ~cid ~label:"c" ~expr:(Expr.Const c)
              ~effects:
                [ { Instruction.pstring = Pauli_string.single 0 Pauli.Z; coeff = c } ]
              ~hint:Instruction.Hint_generic)
          cs
      in
      let aais =
        Aais.make ~name:"floats" ~n_qubits:1 ~pool
          ~instructions:[ Instruction.make ~label:"c" ~channels ]
          ()
      in
      String.equal (Shape.of_aais aais) (Reference_key.render aais))

(* ---- Instruction hints ---- *)

let test_hint_validation_rejects_lies () =
  Alcotest.(check bool) "lying linear hint rejected" true
    (match
       Instruction.channel_of_expr ~cid:0 ~label:"bad"
         ~expr:Expr.(Pow_int (Var 0, 2))
         ~effects:[]
         ~hint:(Instruction.Hint_linear { var = 0; slope = 1.0 })
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_hint_polar_accepts_rydberg_shape () =
  let expr = Expr.(Mul (Mul (Const 0.5, Var 0), Cos (Var 1))) in
  let c =
    Instruction.channel_of_expr ~cid:0 ~label:"rabi-cos" ~expr ~effects:[]
      ~hint:(Instruction.Hint_polar_cos { amp = 0; phase = 1; scale = 0.5 })
  in
  Alcotest.(check bool) "valid" true (Instruction.validate_hint c)

(* Each lie changes the value at some probe point.  Ids of 5000 and
   more check that the probes bind the hint's own variables, whatever
   their ids; the truthful hints must still validate there. *)
let test_polar_hint_lies_rejected () =
  let rejected msg expr hint =
    match Instruction.channel_of_expr ~cid:0 ~label:"bad" ~expr ~effects:[] ~hint with
    | _ -> Alcotest.failf "%s: accepted" msg
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (amp, phase) ->
      let case what = Printf.sprintf "amp %d, phase %d: %s" amp phase what in
      let cos_expr = Expr.(Mul (Mul (Const 0.5, Var amp), Cos (Var phase))) in
      let sin_expr = Expr.(Mul (Mul (Const 0.5, Var amp), Sin (Var phase))) in
      let cos_hint = Instruction.Hint_polar_cos { amp; phase; scale = 0.5 } in
      let sin_hint = Instruction.Hint_polar_sin { amp; phase; scale = 0.5 } in
      List.iter
        (fun (expr, hint) ->
          Alcotest.(check bool) (case "truthful hint") true
            (Instruction.validate_hint
               (Instruction.channel_of_expr ~cid:0 ~label:"ok" ~expr ~effects:[] ~hint)))
        [ (cos_expr, cos_hint); (sin_expr, sin_hint) ];
      rejected (case "amp and phase swapped") cos_expr
        (Instruction.Hint_polar_cos { amp = phase; phase = amp; scale = 0.5 });
      rejected (case "sin hint on a cos channel") cos_expr sin_hint;
      rejected (case "cos hint on a sin channel") sin_expr cos_hint;
      rejected (case "wrong scale") cos_expr
        (Instruction.Hint_polar_cos { amp; phase; scale = 0.25 }))
    [ (0, 1); (1, 0); (5000, 5001); (7331, 5002) ]

let test_instruction_variables_derived () =
  let c1 =
    Instruction.channel_of_expr ~cid:0 ~label:"c1" ~expr:Expr.(Mul (Var 2, Var 0))
      ~effects:[] ~hint:Instruction.Hint_generic
  in
  let i = Instruction.make ~label:"i" ~channels:[ c1 ] in
  Alcotest.(check (list int)) "vars" [ 0; 2 ] i.Instruction.variables

let test_effect_terms_filter_identity () =
  let c =
    Instruction.channel_of_expr ~cid:0 ~label:"c"
      ~expr:(Expr.Const 1.0)
      ~effects:
        [
          { Instruction.pstring = Pauli_string.identity; coeff = 1.0 };
          { Instruction.pstring = Pauli_string.single 0 Pauli.Z; coeff = -1.0 };
        ]
      ~hint:Instruction.Hint_generic
  in
  Alcotest.(check int) "identity removed" 1 (List.length (Instruction.effect_terms c))

(* ---- Rydberg AAIS ---- *)

let test_rydberg_structure_local () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  (* 3 vdW + 3 detuning + 3 rabi instructions *)
  Alcotest.(check int) "instructions" 9 (List.length ryd.Rydberg.aais.Aais.instructions);
  (* channels: 3 vdW + 3 detuning + 6 rabi *)
  Alcotest.(check int) "channels" 12 (Aais.channel_count ryd.Rydberg.aais);
  (* variables: 3 positions + 3 deltas + 3 omegas + 3 phis *)
  Alcotest.(check int) "variables" 12 (Variable.count ryd.Rydberg.aais.Aais.pool)

let test_rydberg_structure_global () =
  let spec = Device.with_control Device.Global Device.aquila_paper in
  let ryd = Rydberg.build ~spec ~n:4 in
  (* 6 vdW + 1 detuning + 1 rabi instruction; 4+1+1+1 variables *)
  Alcotest.(check int) "instructions" 8 (List.length ryd.Rydberg.aais.Aais.instructions);
  Alcotest.(check int) "variables" 7 (Variable.count ryd.Rydberg.aais.Aais.pool)

let test_rydberg_vdw_amplitude () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:2 in
  let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
  env.(ryd.Rydberg.xs.(0).Variable.id) <- 0.0;
  env.(ryd.Rydberg.xs.(1).Variable.id) <- 7.4614;
  let h = Rydberg.hamiltonian ryd ~env in
  (* C6/(4 d^6) at the paper's worked distance is 1.25 MHz *)
  check_close "zz coupling" 1e-3 1.25
    (Pauli_sum.coeff h (Pauli_string.two 0 Pauli.Z 1 Pauli.Z))

let test_rydberg_hamiltonian_drives () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:2 in
  let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
  env.(ryd.Rydberg.omegas.(0).Variable.id) <- 2.0;
  env.(ryd.Rydberg.phis.(0).Variable.id) <- Float.pi /. 2.0;
  env.(ryd.Rydberg.deltas.(1).Variable.id) <- 4.0;
  let h = Rydberg.hamiltonian ryd ~env in
  check_close "X vanishes at phi=pi/2" 1e-12 0.0
    (Pauli_sum.coeff h (Pauli_string.single 0 Pauli.X));
  check_close "Y = -omega/2" 1e-12 (-1.0)
    (Pauli_sum.coeff h (Pauli_string.single 0 Pauli.Y));
  (* detuning contributes Δ/2 to Z, vdW adds its own Z part *)
  let vdw = Pauli_sum.coeff h (Pauli_string.two 0 Pauli.Z 1 Pauli.Z) in
  check_close "Z" 1e-9 (2.0 -. vdw)
    (Pauli_sum.coeff h (Pauli_string.single 1 Pauli.Z))

let test_rydberg_distance_2d () =
  let spec = Device.with_geometry Device.Plane Device.aquila_paper in
  let ryd = Rydberg.build ~spec ~n:3 in
  let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
  (match ryd.Rydberg.ys with
  | None -> Alcotest.fail "planar build lacks y coordinates"
  | Some ys ->
      env.(ryd.Rydberg.xs.(0).Variable.id) <- 0.0;
      env.(ys.(0).Variable.id) <- 0.0;
      env.(ryd.Rydberg.xs.(1).Variable.id) <- 3.0;
      env.(ys.(1).Variable.id) <- 4.0);
  check_close "3-4-5 triangle" 1e-12 5.0 (Rydberg.distance ryd ~env 0 1)

let test_rydberg_gauge_pins () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let x0 = ryd.Rydberg.xs.(0) in
  Alcotest.(check bool) "atom 0 pinned" true
    (x0.Variable.bound.Qturbo_optim.Bounds.lo = 0.0
    && x0.Variable.bound.Qturbo_optim.Bounds.hi = 0.0)

let test_rydberg_check_layout () =
  let spec = Device.aquila_paper in
  Alcotest.(check (list string)) "fine layout" []
    (Rydberg.check_layout ~spec [| (0.0, 0.0); (10.0, 0.0) |]);
  Alcotest.(check bool) "too close" true
    (Rydberg.check_layout ~spec [| (0.0, 0.0); (1.0, 0.0) |] <> []);
  Alcotest.(check bool) "too wide" true
    (Rydberg.check_layout ~spec [| (0.0, 0.0); (200.0, 0.0) |] <> [])

let test_rydberg_hint_consistency () =
  (* every generated channel's hint must validate against its expression *)
  let ryd = Rydberg.build ~spec:Device.aquila ~n:5 in
  Array.iter
    (fun c ->
      if not (Instruction.validate_hint c) then
        Alcotest.failf "hint of %s does not validate" c.Instruction.label)
    (Aais.channels ryd.Rydberg.aais)

(* ---- Heisenberg AAIS ---- *)

let test_heisenberg_structure () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:4 in
  (* 4*3 single + 3*3 pair instructions, all single-channel *)
  Alcotest.(check int) "instructions" 21 (List.length heis.Heisenberg.aais.Aais.instructions);
  Alcotest.(check int) "channels" 21 (Aais.channel_count heis.Heisenberg.aais);
  Alcotest.(check int) "variables" 21 (Variable.count heis.Heisenberg.aais.Aais.pool)

let test_heisenberg_ring () =
  let spec = { Device.heisenberg_default with Device.ring = true } in
  let heis = Heisenberg.build ~spec ~n:4 in
  Alcotest.(check int) "pairs include wraparound" 4 (List.length heis.Heisenberg.pairs)

let test_heisenberg_hamiltonian () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:2 in
  let env = Variable.initial_env heis.Heisenberg.aais.Aais.pool in
  env.(heis.Heisenberg.singles.(0).(0).Variable.id) <- 1.5 (* X0 *);
  (match heis.Heisenberg.pairs with
  | (0, 1, vars) :: _ -> env.(vars.(2).Variable.id) <- 0.25 (* Z0Z1 *)
  | _ -> Alcotest.fail "expected pair (0,1)");
  let h = Heisenberg.hamiltonian heis ~env in
  check_close "X0" 1e-12 1.5 (Pauli_sum.coeff h (Pauli_string.single 0 Pauli.X));
  check_close "Z0Z1" 1e-12 0.25
    (Pauli_sum.coeff h (Pauli_string.two 0 Pauli.Z 1 Pauli.Z));
  Alcotest.(check int) "only set terms" 2 (Pauli_sum.term_count h)

let test_heisenberg_all_dynamic () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:3 in
  Alcotest.(check (list int)) "no fixed variables" []
    (Aais.fixed_variable_ids heis.Heisenberg.aais)

(* ---- Pulse ---- *)

let pulse_for_test () =
  {
    Pulse.spec = Device.aquila_paper;
    positions = [| (0.0, 0.0); (9.0, 0.0) |];
    segments =
      [
        { Pulse.duration = 0.5; omega = [| 1.0; 1.0 |]; phi = [| 0.0; 0.0 |]; delta = [| 0.0; 0.0 |] };
        { Pulse.duration = 0.3; omega = [| 2.0; 2.0 |]; phi = [| 0.0; 0.0 |]; delta = [| 1.0; 1.0 |] };
      ];
  }

let test_pulse_duration () =
  check_close "total" 1e-12 0.8 (Pulse.rydberg_duration (pulse_for_test ()))

let test_pulse_limits_ok () =
  Alcotest.(check (list string)) "within limits" [] (Pulse.within_limits (pulse_for_test ()))

let test_pulse_limits_violated () =
  let p = pulse_for_test () in
  let bad =
    {
      p with
      Pulse.segments =
        [ { Pulse.duration = 5.0; omega = [| 99.0; 0.0 |]; phi = [| 0.0; 0.0 |]; delta = [| 0.0; 0.0 |] } ];
    }
  in
  Alcotest.(check bool) "violations reported" true
    (List.length (Pulse.within_limits bad) >= 2)

let test_pulse_segment_hamiltonians () =
  let hs = Pulse.rydberg_segment_hamiltonians (pulse_for_test ()) in
  Alcotest.(check int) "two segments" 2 (List.length hs);
  (match hs with
  | (h1, t1) :: (h2, _) :: _ ->
      check_close "duration" 1e-12 0.5 t1;
      check_close "segment 1 X" 1e-12 0.5
        (Pauli_sum.coeff h1 (Pauli_string.single 0 Pauli.X));
      check_close "segment 2 X" 1e-12 1.0
        (Pauli_sum.coeff h2 (Pauli_string.single 0 Pauli.X))
  | _ -> Alcotest.fail "expected two segments")

let test_heisenberg_pulse () =
  let h = Pauli_sum.term 0.5 (Pauli_string.two 0 Pauli.X 1 Pauli.X) in
  let p : Pulse.heisenberg =
    {
      Pulse.spec = Device.heisenberg_default;
      segments = [ { Pulse.duration = 2.0; amplitudes = Pauli_sum.terms h } ];
    }
  in
  check_close "duration" 1e-12 2.0 (Pulse.heisenberg_duration p);
  match Pulse.heisenberg_segment_hamiltonians p with
  | [ (h', t) ] ->
      check_close "t" 1e-12 2.0 t;
      Alcotest.(check bool) "roundtrip" true (Pauli_sum.equal h h')
  | _ -> Alcotest.fail "expected one segment"

(* ---- qcheck ---- *)

let prop_rydberg_hamiltonian_hermitian_structure =
  QCheck.Test.make ~name:"rydberg channel effects only touch X/Y/Z terms" ~count:20
    QCheck.(int_range 2 8) (fun n ->
      let ryd = Rydberg.build ~spec:Device.aquila_paper ~n in
      Array.for_all
        (fun c ->
          List.for_all
            (fun (s, _) -> Pauli_string.weight s >= 1 && Pauli_string.weight s <= 2)
            (Instruction.effect_terms c))
        (Aais.channels ryd.Rydberg.aais))

let prop_polygon_inits_satisfy_min_separation =
  QCheck.Test.make ~name:"planar initial layout respects separation" ~count:15
    QCheck.(int_range 3 12) (fun n ->
      let spec = Device.aquila in
      let ryd = Rydberg.build ~spec ~n in
      let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
      let violations =
        List.filter
          (fun v ->
            (* only separation violations matter here *)
            String.length v > 5 && String.sub v 0 5 = "atoms")
          (Rydberg.check_layout ~spec (Rydberg.positions ryd ~env))
      in
      violations = [])

let () =
  Alcotest.run "aais"
    [
      ( "variable",
        [
          Alcotest.test_case "pool" `Quick test_variable_pool;
          Alcotest.test_case "init clamped" `Quick test_variable_init_clamped;
          Alcotest.test_case "copy_pool leaves the original" `Quick
            test_copy_pool_leaves_original;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "trig" `Quick test_expr_eval_trig;
          Alcotest.test_case "negative power" `Quick test_expr_negative_power;
          Alcotest.test_case "int_pow special values" `Quick
            test_int_pow_special_values;
          QCheck_alcotest.to_alcotest prop_int_pow_matches_recursion;
          Alcotest.test_case "vars" `Quick test_expr_vars;
          Alcotest.test_case "simplify" `Quick test_expr_simplify;
          Alcotest.test_case "deriv polynomial" `Quick test_expr_deriv_polynomial;
          Alcotest.test_case "deriv trig" `Quick test_expr_deriv_trig;
          Alcotest.test_case "deriv quotient" `Quick test_expr_deriv_quotient;
          Alcotest.test_case "deriv vs numeric" `Quick test_expr_deriv_matches_numeric;
          Alcotest.test_case "linearity detection" `Quick test_expr_is_linear;
        ] );
      ( "template",
        [
          Alcotest.test_case "view and map back" `Quick test_template_view;
          Alcotest.test_case "repeated or missing ids rejected" `Quick
            test_template_rejects_bad_ids;
          Alcotest.test_case "0.0 and -0.0 templates get their own kernels"
            `Quick test_signed_zero_templates;
          Alcotest.test_case "ids past 2^24 compile directly" `Quick
            test_template_wide_ids;
          QCheck_alcotest.to_alcotest prop_template_kernels_match_direct;
        ] );
      ( "shape",
        [
          Alcotest.test_case "key integers spelled as string_of_int" `Quick
            test_key_integer_spelling;
          Alcotest.test_case "stock channels are template instances" `Quick
            test_stock_channels_are_instances;
          QCheck_alcotest.to_alcotest prop_key_floats_match_reference;
        ] );
      ( "instruction",
        [
          Alcotest.test_case "lying hints rejected" `Quick test_hint_validation_rejects_lies;
          Alcotest.test_case "polar shape accepted" `Quick test_hint_polar_accepts_rydberg_shape;
          Alcotest.test_case "lying polar hints rejected" `Quick
            test_polar_hint_lies_rejected;
          Alcotest.test_case "variables derived" `Quick test_instruction_variables_derived;
          Alcotest.test_case "identity effects filtered" `Quick
            test_effect_terms_filter_identity;
        ] );
      ( "rydberg",
        [
          Alcotest.test_case "local structure" `Quick test_rydberg_structure_local;
          Alcotest.test_case "global structure" `Quick test_rydberg_structure_global;
          Alcotest.test_case "vdW amplitude" `Quick test_rydberg_vdw_amplitude;
          Alcotest.test_case "drive Hamiltonian" `Quick test_rydberg_hamiltonian_drives;
          Alcotest.test_case "2-D distance" `Quick test_rydberg_distance_2d;
          Alcotest.test_case "gauge pins" `Quick test_rydberg_gauge_pins;
          Alcotest.test_case "layout checks" `Quick test_rydberg_check_layout;
          Alcotest.test_case "hints validate" `Quick test_rydberg_hint_consistency;
        ] );
      ( "heisenberg",
        [
          Alcotest.test_case "structure" `Quick test_heisenberg_structure;
          Alcotest.test_case "ring" `Quick test_heisenberg_ring;
          Alcotest.test_case "hamiltonian" `Quick test_heisenberg_hamiltonian;
          Alcotest.test_case "all dynamic" `Quick test_heisenberg_all_dynamic;
        ] );
      ( "pulse",
        [
          Alcotest.test_case "duration" `Quick test_pulse_duration;
          Alcotest.test_case "limits ok" `Quick test_pulse_limits_ok;
          Alcotest.test_case "limits violated" `Quick test_pulse_limits_violated;
          Alcotest.test_case "segment hamiltonians" `Quick test_pulse_segment_hamiltonians;
          Alcotest.test_case "heisenberg pulse" `Quick test_heisenberg_pulse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rydberg_hamiltonian_hermitian_structure;
            prop_polygon_inits_satisfy_min_separation;
          ] );
    ]
