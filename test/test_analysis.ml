(* Tests for the pre-solve static analyzer (qturbo.analysis): the
   interval evaluator, the four analysis passes, the fail-fast compiler
   precheck (seeded defects must be rejected before any solver stage
   runs) and the JSON renderers. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module Diagnostic = Qturbo_analysis.Diagnostic

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

let ising_chain n =
  Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n ()) ~s:0.0

let rydberg3 () = Rydberg.build ~spec:Device.aquila_paper ~n:3

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds
let has_code c ds = List.mem c (codes ds)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ---- interval evaluator ---- *)

let interval msg (elo, ehi) (lo, hi) =
  check_close (msg ^ " lo") 1e-9 elo lo;
  check_close (msg ^ " hi") 1e-9 ehi hi

let test_interval_arithmetic () =
  let bounds = [| (1.0, 2.0); (-1.0, 3.0) |] in
  let ev e = Expr.eval_interval e ~bounds in
  interval "const" (5.0, 5.0) (ev (Expr.Const 5.0));
  interval "var" (1.0, 2.0) (ev (Expr.Var 0));
  interval "add" (0.0, 5.0) (ev (Expr.Add (Expr.Var 0, Expr.Var 1)));
  interval "sub" (-2.0, 3.0) (ev (Expr.Sub (Expr.Var 0, Expr.Var 1)));
  interval "mul" (-2.0, 6.0) (ev (Expr.Mul (Expr.Var 0, Expr.Var 1)));
  interval "neg" (-2.0, -1.0) (ev (Expr.Neg (Expr.Var 0)))

let test_interval_division_through_zero () =
  let bounds = [| (1.0, 2.0); (-1.0, 3.0); (0.0, 4.0); (-3.0, 0.0) |] in
  let ev e = Expr.eval_interval e ~bounds in
  (* denominator spanning zero in the interior: whole line *)
  let lo, hi = ev (Expr.Div (Expr.Const 1.0, Expr.Var 1)) in
  Alcotest.(check bool) "interior zero widens" true
    (lo = neg_infinity && hi = infinity);
  (* denominator touching zero at the lower endpoint: positive ray *)
  let lo, hi = ev (Expr.Div (Expr.Const 1.0, Expr.Var 2)) in
  check_close "ray lo" 1e-9 0.25 lo;
  Alcotest.(check bool) "ray hi" true (hi = infinity);
  (* negative ray from a denominator touching zero from below *)
  let lo, hi = ev (Expr.Div (Expr.Const 1.0, Expr.Var 3)) in
  Alcotest.(check bool) "neg ray lo" true (lo = neg_infinity);
  check_close "neg ray hi" 1e-9 (-1.0 /. 3.0) hi;
  (* bounded positive denominator stays bounded *)
  interval "bounded" (0.5, 1.0) (ev (Expr.Div (Expr.Const 1.0, Expr.Var 0)))

let test_interval_pow_signs () =
  let bounds = [| (-2.0, 3.0); (-3.0, -1.0); (1.0, 2.0) |] in
  let ev e = Expr.eval_interval e ~bounds in
  (* even power of a sign-spanning interval: [0, max] *)
  interval "even span" (0.0, 9.0) (ev (Expr.Pow_int (Expr.Var 0, 2)));
  (* even power of a negative interval flips *)
  interval "even neg" (1.0, 9.0) (ev (Expr.Pow_int (Expr.Var 1, 2)));
  (* odd power is monotone *)
  interval "odd" (-8.0, 27.0) (ev (Expr.Pow_int (Expr.Var 0, 3)));
  (* negative exponent of a positive interval *)
  interval "recip sq" (0.25, 1.0) (ev (Expr.Pow_int (Expr.Var 2, -2)));
  (* the vdW shape: C6 / 4 x^6 with x able to reach 0 gives a ray *)
  let lo, hi =
    Expr.eval_interval
      (Expr.Div (Expr.Const 862690.0, Expr.Pow_int (Expr.Var 0, 6)))
      ~bounds:[| (0.0, 75.0) |]
  in
  Alcotest.(check bool) "vdW strictly positive" true (lo > 0.0);
  Alcotest.(check bool) "vdW unbounded above" true (hi = infinity)

let test_interval_trig_extrema () =
  let ev ~bounds e = Expr.eval_interval e ~bounds in
  (* sin over [0, pi/2] is monotone: endpoint values *)
  interval "sin monotone" (0.0, 1.0)
    (ev ~bounds:[| (0.0, Float.pi /. 2.0) |] (Expr.Sin (Expr.Var 0)));
  (* sin over [0, pi]: interior maximum at pi/2 *)
  interval "sin max inside" (0.0, 1.0)
    (ev ~bounds:[| (0.0, Float.pi) |] (Expr.Sin (Expr.Var 0)));
  (* cos over [pi/4, 3pi/4] has no extremum inside *)
  let c = Float.cos (Float.pi /. 4.0) in
  interval "cos endpoints" (-.c, c)
    (ev
       ~bounds:[| (Float.pi /. 4.0, 3.0 *. Float.pi /. 4.0) |]
       (Expr.Cos (Expr.Var 0)));
  (* cos over [-pi, pi] hits both extrema *)
  interval "cos full" (-1.0, 1.0)
    (ev ~bounds:[| (-.Float.pi, Float.pi) |] (Expr.Cos (Expr.Var 0)))

(* ---- seeded defects: rejected before any solver stage ---- *)

let with_stages f =
  let stages = ref [] in
  let old = !Compiler.stage_hook in
  Compiler.stage_hook := (fun s -> stages := s :: !stages);
  Fun.protect ~finally:(fun () -> Compiler.stage_hook := old) (fun () ->
      let r = f () in
      (r, List.rev !stages))

let expect_rejected_before_solving ~code f =
  let outcome, stages = with_stages f in
  (match outcome with
  | Error (Diagnostic.Rejected ds) ->
      Alcotest.(check bool) (code ^ " reported") true (has_code code ds)
  | Error e -> raise e
  | Ok _ -> Alcotest.failf "expected rejection with %s" code);
  Alcotest.(check bool) "precheck ran" true (List.mem "precheck" stages);
  Alcotest.(check bool) "no solver stage ran" false
    (List.mem "linear-solve" stages || List.mem "local-solve" stages)

let try_compile ~aais ~target ~t_tar () =
  match Compiler.compile ~aais ~target ~t_tar () with
  | r -> Ok r
  | exception e -> Error e

let test_reject_unsupported_term () =
  (* YY is outside the Rydberg span: QT001 before any solver *)
  let ryd = rydberg3 () in
  let target =
    Pauli_sum.add (ising_chain 3)
      (Pauli_sum.term 1.0 (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
  in
  expect_rejected_before_solving ~code:"QT001"
    (try_compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0)

let test_reject_sign_infeasible_coefficient () =
  (* a negative ZZ coefficient cannot be reached: the vdW rate interval
     is strictly positive within the position bounds *)
  let ryd = rydberg3 () in
  let target =
    Pauli_sum.add (ising_chain 3)
      (* Z0Z2 is not a chain edge, so nothing cancels the negative sign *)
      (Pauli_sum.term (-1.0) (Pauli_string.two 0 Pauli.Z 2 Pauli.Z))
  in
  expect_rejected_before_solving ~code:"QT002"
    (try_compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0)

(* an AAIS with an effectless channel — the dangling-synthesized-variable
   defect (no built-in backend has one, so construct it) *)
let dangling_aais () =
  let ryd = rydberg3 () in
  let aais = ryd.Rydberg.aais in
  let pool = Variable.copy_pool aais.Aais.pool in
  let v =
    Variable.fresh pool ~name:"dangling" ~kind:Variable.Runtime_dynamic
      ~lo:0.0 ~hi:1.0 ()
  in
  let ch =
    Instruction.channel_of_expr ~cid:(Aais.channel_count aais) ~label:"dangling"
      ~expr:(Expr.var v) ~effects:[] ~hint:Instruction.Hint_generic
  in
  Aais.make ~name:"rydberg+dangling" ~n_qubits:aais.Aais.n_qubits ~pool
    ~instructions:(aais.Aais.instructions @ [ Instruction.make ~label:"dangling" ~channels:[ ch ] ])
    ~check_fixed:aais.Aais.check_fixed ()

let test_reject_dangling_channel () =
  expect_rejected_before_solving ~code:"QT005"
    (try_compile ~aais:(dangling_aais ()) ~target:(ising_chain 3) ~t_tar:1.0)

let test_td_compiler_rejects_too () =
  let ryd = rydberg3 () in
  let model =
    Qturbo_models.Model.static ~name:"yy" ~n:3
      (Pauli_sum.term 1.0 (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
  in
  let outcome, stages =
    with_stages (fun () ->
        match
          Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0
            ~segments:2 ()
        with
        | r -> Ok r
        | exception e -> Error e)
  in
  (match outcome with
  | Error (Diagnostic.Rejected ds) ->
      Alcotest.(check bool) "QT001" true (has_code "QT001" ds)
  | Error e -> raise e
  | Ok _ -> Alcotest.fail "expected rejection");
  Alcotest.(check bool) "no linear solve" false (List.mem "linear-solve" stages)

let test_non_strict_keeps_least_squares () =
  let ryd = rydberg3 () in
  let target =
    Pauli_sum.add (ising_chain 3)
      (Pauli_sum.term 1.0 (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
  in
  let r =
    Compiler.compile ~strict:false ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "residual visible" true (r.Compiler.error_l1 >= 1.0);
  Alcotest.(check bool) "diagnostics carried" true
    (has_code "QT001" r.Compiler.diagnostics)

(* ---- clean inputs stay clean ---- *)

let test_clean_compile_no_errors () =
  let ryd = rydberg3 () in
  let diags =
    Compiler.analyze ~aais:ryd.Rydberg.aais ~target:(ising_chain 3) ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "no errors" false (Diagnostic.has_errors diags);
  Alcotest.(check bool) "no warnings" true (Diagnostic.warnings diags = []);
  let r =
    Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain 3) ~t_tar:1.0 ()
  in
  Alcotest.(check (list string)) "compile carries no warnings" []
    r.Compiler.warnings

let test_magnitude_warning_with_t_max () =
  (* a 5·Z term needs rate 50 over t_max = 0.1 µs, but the detuning
     channel caps at delta_max/2 = 10: QT003 *)
  let ryd = rydberg3 () in
  let target = Pauli_sum.term 5.0 (Pauli_string.single 0 Pauli.Z) in
  let diags =
    Compiler.analyze ~t_max:0.1 ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "QT003 warned" true (has_code "QT003" diags);
  (* generous t_max: no warning *)
  let diags =
    Compiler.analyze ~t_max:10.0 ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "no QT003" false (has_code "QT003" diags)

let test_unused_variable_warns () =
  let pool = Variable.create_pool () in
  let used =
    Variable.fresh pool ~name:"used" ~kind:Variable.Runtime_dynamic ~lo:(-1.0)
      ~hi:1.0 ()
  in
  let _unused =
    Variable.fresh pool ~name:"unused" ~kind:Variable.Runtime_dynamic ~lo:0.0
      ~hi:1.0 ()
  in
  let ch =
    Instruction.channel_of_expr ~cid:0 ~label:"z0" ~expr:(Expr.var used)
      ~effects:
        [ { Instruction.pstring = Pauli_string.single 0 Pauli.Z; coeff = 1.0 } ]
      ~hint:Instruction.Hint_generic
  in
  let aais =
    Aais.make ~name:"toy" ~n_qubits:1 ~pool
      ~instructions:[ Instruction.make ~label:"z0" ~channels:[ ch ] ]
      ()
  in
  let target = Pauli_sum.term 0.5 (Pauli_string.single 0 Pauli.Z) in
  let diags = Compiler.analyze ~aais ~target ~t_tar:1.0 () in
  Alcotest.(check bool) "QT006 warned" true (has_code "QT006" diags);
  Alcotest.(check bool) "but no errors" false (Diagnostic.has_errors diags)

(* ---- device spec checks ---- *)

let test_device_unit_mixing () =
  (* MHz-convention c6 with a rad/µs-scale omega bound *)
  let spec = { Device.aquila_paper with Device.omega_max = 15.8 } in
  let diags = Qturbo_analysis.Device_check.rydberg_spec spec in
  Alcotest.(check bool) "QT010" true (has_code "QT010" diags);
  (* consistent presets are quiet *)
  List.iter
    (fun (spec : Device.rydberg) ->
      Alcotest.(check (list string)) ("preset " ^ spec.Device.name) []
        (codes (Qturbo_analysis.Device_check.rydberg_spec spec)))
    [ Device.aquila_paper; Device.aquila; Device.aquila_fig6a; Device.aquila_fig6b ]

let test_device_bad_limits () =
  let spec = { Device.aquila_paper with Device.c6 = 0.0; max_time = -1.0 } in
  let diags = Qturbo_analysis.Device_check.rydberg_spec spec in
  Alcotest.(check bool) "QT011" true (has_code "QT011" diags);
  Alcotest.(check int) "both limits flagged" 2
    (List.length (List.filter (fun c -> c = "QT011") (codes diags)))

(* ---- JSON ---- *)

let test_json_rendering () =
  let d =
    Diagnostic.make ~code:"QT001" ~severity:Diagnostic.Error
      ~subject:(Diagnostic.Term (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
      ~hint:{|say "hi"|} {|not producible|}
  in
  let j = Diagnostic.to_json d in
  Alcotest.(check bool) "code present" true
    (contains ~affix:{|"code":"QT001"|} j);
  Alcotest.(check bool) "quotes escaped" true
    (contains ~affix:{|\"hi\"|} j);
  let l = Diagnostic.list_to_json [ d ] in
  Alcotest.(check bool) "error counted" true
    (contains ~affix:{|"errors":1|} l)

(* ---- property: the interval evaluator encloses eval ---- *)

let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun x -> Expr.Const x) (float_range (-3.0) 3.0);
        map (fun v -> Expr.Var v) (int_range 0 2);
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map (fun a -> Expr.Neg a) sub;
            map2 (fun a b -> Expr.Add (a, b)) sub sub;
            map2 (fun a b -> Expr.Sub (a, b)) sub sub;
            map2 (fun a b -> Expr.Mul (a, b)) sub sub;
            map2 (fun a b -> Expr.Div (a, b)) sub sub;
            map (fun a -> Expr.Sin a) sub;
            map (fun a -> Expr.Cos a) sub;
            map (fun a -> Expr.Pow_int (a, 2)) sub;
            map (fun a -> Expr.Pow_int (a, 3)) sub;
            map (fun a -> Expr.Pow_int (a, -1)) sub;
          ])
    3

let arb_expr_with_env =
  let open QCheck.Gen in
  let bound = float_range (-2.0) 2.0 in
  let gen =
    expr_gen >>= fun e ->
    (* three variables, each with a random interval and a point inside *)
    list_repeat 3 (pair bound (float_range 0.0 1.0)) >>= fun specs ->
    let bounds =
      Array.of_list
        (List.map (fun (a, _) -> (Float.min a 0.0 -. 0.5, Float.max a 0.0 +. 0.5)) specs)
    in
    let env =
      Array.of_list
        (List.map2
           (fun (lo, hi) (_, frac) -> lo +. (frac *. (hi -. lo)))
           (Array.to_list bounds) specs)
    in
    return (e, bounds, env)
  in
  QCheck.make
    ~print:(fun (e, _, _) -> Format.asprintf "%a" Expr.pp e)
    gen

let prop_interval_encloses_eval =
  QCheck.Test.make ~name:"eval_interval soundly encloses eval" ~count:1000
    arb_expr_with_env (fun (e, bounds, env) ->
      let v = Expr.eval e ~env in
      let lo, hi = Expr.eval_interval e ~bounds in
      (* NaN point values (0/0 etc.) are outside the contract *)
      if Float.is_nan v then true
      else if v = infinity then hi = infinity
      else if v = neg_infinity then lo = neg_infinity
      else
        lo <= v +. 1e-9 +. (1e-9 *. Float.abs v)
        && v -. 1e-9 -. (1e-9 *. Float.abs v) <= hi)

(* ---- a plan's tables decide what the reference channel scan decides ---- *)

module Backend = Qturbo_backend.Backend
module Analysis = Qturbo_analysis.Analysis

(* A device and the terms random targets draw from: the model's own
   terms, a sample of terms its channels produce (negative signs on
   van-der-Waals rows give QT002), terms no channel produces (QT001)
   and a term on the first site past the register (QT004). *)
type device_case = {
  label : string;
  aais : Aais.t;
  candidates : Pauli_string.t list;
}

let device_case (backend : Backend.t) ~model ~n =
  let aais = (backend.Backend.instantiate ~model_name:model ~n ()).Backend.aais in
  let produced = Hashtbl.create 1024 in
  Array.iter
    (fun (c : Instruction.channel) ->
      List.iter
        (fun (e : Instruction.effect) ->
          if not (Pauli_string.is_identity e.pstring) then
            Hashtbl.replace produced e.pstring ())
        c.effects)
    (Aais.channels aais);
  let model_terms =
    Pauli_sum.support
      (Pauli_sum.drop_identity
         (Qturbo_models.Model.hamiltonian_at
            (Qturbo_models.Benchmarks.by_name ~name:model ~n)
            ~s:0.0))
  in
  let channel_terms =
    List.filteri (fun i _ -> i < 24)
      (List.sort Pauli_string.compare
         (Hashtbl.fold (fun s () acc -> s :: acc) produced []))
  in
  let uncovered =
    List.filter
      (fun s -> not (Hashtbl.mem produced s))
      [
        Pauli_string.two 0 Pauli.Y 1 Pauli.Y;
        Pauli_string.two 0 Pauli.X 1 Pauli.Z;
        Pauli_string.two 0 Pauli.Z 3 Pauli.Z;
        Pauli_string.two 1 Pauli.Y 2 Pauli.X;
      ]
  in
  {
    label = Printf.sprintf "%s %s n=%d" backend.Backend.name model n;
    aais;
    candidates =
      List.sort_uniq Pauli_string.compare
        ((Pauli_string.single n Pauli.Z :: model_terms)
        @ channel_terms @ uncovered);
  }

let device_cases =
  lazy
    [
      device_case Backend.rydberg ~model:"ising-chain" ~n:5;
      device_case Backend.heisenberg ~model:"heis-chain" ~n:5;
      device_case Backend.iontrap ~model:"ising-chain" ~n:5;
      (* planar, truncated by the Auto cutoff *)
      device_case Backend.rydberg ~model:"ising-cycle" ~n:150;
    ]

let json = Diagnostic.list_to_json

(* [diagnose] on the target's own plan against the reference scan plus
   the plan's structure findings, byte for byte *)
let plan_agrees ~aais ~plan ?t_max ~t_tar target =
  json (Compile_plan.diagnose ?t_max ~aais ~plan ~t_tar target)
  = json
      (Analysis.static_checks ~aais ~target ~t_tar ?t_max ()
      @ plan.Compile_plan.structure_diags)

let arb_target case =
  let open QCheck.Gen in
  let pick = triple (float_range 0.0 1.0) bool (float_range 0.05 4.0) in
  let gen =
    list_repeat (List.length case.candidates) pick >>= fun picks ->
    opt (float_range 0.01 2.0) >>= fun t_max ->
    float_range 0.05 20.0 >>= fun t_tar ->
    let terms =
      List.filter_map
        (fun (s, (keep, negative, c)) ->
          if keep < 0.4 then Some (s, if negative then -.c else c) else None)
        (List.combine case.candidates picks)
    in
    return (Pauli_sum.of_list terms, t_max, t_tar)
  in
  QCheck.make
    ~print:(fun (target, t_max, t_tar) ->
      Format.asprintf "%s: %a, t_tar %g, t_max %s" case.label Pauli_sum.pp
        target t_tar
        (match t_max with Some t -> string_of_float t | None -> "none"))
    gen

let prop_plan_precheck_matches_reference case =
  QCheck.Test.make
    ~name:("diagnose == static_checks @ structure, " ^ case.label)
    ~count:40 (arb_target case)
    (fun (target, t_max, t_tar) ->
      let plan, _ =
        Compile_plan.obtain ~options:Compiler.default_options ~aais:case.aais
          ~target
      in
      plan_agrees ~aais:case.aais ~plan ?t_max ~t_tar target)

(* the generator reaches every code the tables decide *)
let test_generator_reaches_every_code () =
  let seen = Hashtbl.create 8 in
  let rand = Random.State.make [| 42 |] in
  List.iter
    (fun case ->
      let arb = arb_target case in
      for _ = 1 to 40 do
        let target, t_max, t_tar = QCheck.Gen.generate1 ~rand arb.QCheck.gen in
        List.iter
          (fun (d : Diagnostic.t) -> Hashtbl.replace seen d.code ())
          (Analysis.static_checks ~aais:case.aais ~target ~t_tar ?t_max ())
      done)
    (Lazy.force device_cases);
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " generated") true (Hashtbl.mem seen code))
    [ "QT001"; "QT002"; "QT003"; "QT004"; "QT029" ]

(* A time-dependent compile diagnoses every segment against one plan on
   the union support.  mis-chain at K = 6 (K = 2 mod 4) samples s = 0.75,
   where the end-atom Z terms cancel: that segment names fewer terms
   than the plan's support. *)
let test_td_union_support_matches_reference () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:5 in
  let aais = ryd.Rydberg.aais in
  let segments = 6 and t_tar = 4.0 in
  let hams =
    Qturbo_models.Model.discretize
      (Qturbo_models.Benchmarks.mis_chain ~n:5 ())
      ~segments
  in
  let plan, _ =
    Compile_plan.obtain_for_support ~options:Compiler.default_options ~aais
      ~support:
        (List.sort_uniq Pauli_string.compare
           (List.concat_map Compile_plan.support_of_target hams))
  in
  let support = List.length plan.Compile_plan.support in
  Alcotest.(check bool) "some segment cancels a term" true
    (List.exists
       (fun h -> List.length (Compile_plan.support_of_target h) < support)
       hams);
  List.iteri
    (fun k h ->
      List.iter
        (fun t_max ->
          Alcotest.(check bool)
            (Printf.sprintf "segment %d" k)
            true
            (plan_agrees ~aais ~plan ?t_max ~t_tar:(t_tar /. float_of_int segments) h))
        [ None; Some 4.0; Some 0.01 ])
    hams

(* The plan's shape is the contract, as for [solve]: a term only
   channels produce has a row past the support and is still judged as
   the reference judges it; a term with no row is a caller error, never
   a silent QT001. *)
let test_diagnose_shape_contract () =
  let ryd = rydberg3 () in
  let aais = ryd.Rydberg.aais in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options ~aais
      ~target:(ising_chain 3)
  in
  let channel_only =
    Pauli_sum.add (ising_chain 3)
      (Pauli_sum.of_list
         [
           (Pauli_string.single 0 Pauli.Z, 0.5);
           (Pauli_string.two 0 Pauli.Z 2 Pauli.Z, -1.0);
         ])
  in
  Alcotest.(check bool) "channel-only rows == reference" true
    (plan_agrees ~aais ~plan ~t_max:1.0 ~t_tar:1.0 channel_only);
  let target =
    Pauli_sum.add (ising_chain 3)
      (Pauli_sum.term 1.0 (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
  in
  match Compile_plan.diagnose ~aais ~plan ~t_tar:1.0 target with
  | _ -> Alcotest.fail "a term outside the plan's shape was diagnosed"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "analysis"
    [
      ( "interval",
        [
          Alcotest.test_case "arithmetic" `Quick test_interval_arithmetic;
          Alcotest.test_case "division through zero" `Quick test_interval_division_through_zero;
          Alcotest.test_case "pow signs" `Quick test_interval_pow_signs;
          Alcotest.test_case "trig extrema" `Quick test_interval_trig_extrema;
        ] );
      ( "precheck",
        [
          Alcotest.test_case "unsupported term rejected" `Quick test_reject_unsupported_term;
          Alcotest.test_case "sign-infeasible coefficient rejected" `Quick
            test_reject_sign_infeasible_coefficient;
          Alcotest.test_case "dangling channel rejected" `Quick test_reject_dangling_channel;
          Alcotest.test_case "td compiler rejects too" `Quick test_td_compiler_rejects_too;
          Alcotest.test_case "non-strict keeps least squares" `Quick
            test_non_strict_keeps_least_squares;
          Alcotest.test_case "clean compile stays clean" `Quick test_clean_compile_no_errors;
          Alcotest.test_case "magnitude warning with t_max" `Quick
            test_magnitude_warning_with_t_max;
          Alcotest.test_case "unused variable warns" `Quick test_unused_variable_warns;
        ] );
      ( "device",
        [
          Alcotest.test_case "unit mixing" `Quick test_device_unit_mixing;
          Alcotest.test_case "bad limits" `Quick test_device_bad_limits;
        ] );
      ( "json", [ Alcotest.test_case "rendering" `Quick test_json_rendering ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_interval_encloses_eval ] );
      ( "tables",
        Alcotest.test_case "generator reaches every code" `Quick
          test_generator_reaches_every_code
        :: Alcotest.test_case "td union support == reference" `Quick
             test_td_union_support_matches_reference
        :: Alcotest.test_case "the plan's shape is the contract" `Quick
             test_diagnose_shape_contract
        :: List.map
             (fun case ->
               QCheck_alcotest.to_alcotest
                 (prop_plan_precheck_matches_reference case))
             (Lazy.force device_cases) );
    ]
