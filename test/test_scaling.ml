(* Tests for the large-N scaling work: the Rydberg interaction cutoff
   (neighbor-list builds must be byte-identical to all-pairs whenever
   the radius covers the layout, and must drop exactly the beyond-radius
   pairs otherwise), the batched kernel evaluator, and the sparse
   position-solve path (bitwise-deterministic at any domain count,
   warm ≡ cold). *)

open Qturbo_aais
open Qturbo_core
module Pauli_sum = Qturbo_pauli.Pauli_sum

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }
let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let static_target name n =
  Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.by_name ~name ~n)
       ~s:0.0)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let check_bits_arr msg a b =
  if not (bits_equal a b) then Alcotest.failf "%s: arrays differ bitwise" msg

let check_bits msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %h vs %h" msg a b

let initial_positions ryd =
  Rydberg.positions ryd ~env:(Variable.initial_env ryd.Rydberg.aais.Aais.pool)

let layout_diameter positions =
  let d = ref 0.0 in
  Array.iteri
    (fun i (xi, yi) ->
      Array.iteri
        (fun j (xj, yj) ->
          if j > i then
            d := Float.max !d (Float.hypot (xi -. xj) (yi -. yj)))
        positions)
    positions;
  !d

(* ---- neighbor-list enumeration vs the exact double loop ---- *)

let brute_force_pairs ~radius positions =
  let n = Array.length positions in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let xi, yi = positions.(i) and xj, yj = positions.(j) in
      if Float.hypot (xi -. xj) (yi -. yj) <= radius then
        acc := (i, j) :: !acc
    done
  done;
  List.rev !acc

let arb_layout_and_radius =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* pts =
        array_repeat n (pair (float_bound_inclusive 120.0) (float_bound_inclusive 120.0))
      in
      let* radius = float_range 0.5 180.0 in
      return (pts, radius))
  in
  let print (pts, r) =
    Printf.sprintf "n=%d radius=%g" (Array.length pts) r
  in
  QCheck.make ~print gen

let test_pairs_within_matches_brute_force =
  QCheck.Test.make ~name:"pairs_within = exact filter of all pairs, in order"
    ~count:200 arb_layout_and_radius (fun (pts, radius) ->
      Rydberg.pairs_within ~radius pts = brute_force_pairs ~radius pts)

(* ---- cutoff covering the layout ⇒ byte-identical to all-pairs ---- *)

let aais_channel_labels aais =
  Array.to_list
    (Array.map (fun (c : Instruction.channel) -> c.label) (Aais.channels aais))

let arb_chain_n = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 24)

let test_covering_radius_is_exact =
  QCheck.Test.make
    ~name:"radius >= layout diameter: build is byte-identical to all-pairs"
    ~count:12 arb_chain_n (fun n ->
      let exact = Rydberg.build_cutoff ~cutoff:Rydberg.All_pairs ~spec:relaxed_line ~n in
      let diameter = layout_diameter (initial_positions exact) in
      let trunc =
        Rydberg.build_cutoff
          ~cutoff:(Rydberg.Radius (diameter +. 1e-9))
          ~spec:relaxed_line ~n
      in
      trunc.Rydberg.aais.Aais.truncation = None
      && aais_channel_labels trunc.Rydberg.aais = aais_channel_labels exact.Rydberg.aais
      && String.equal
           (Shape.of_aais trunc.Rydberg.aais)
           (Shape.of_aais exact.Rydberg.aais))

let test_covering_radius_compiles_identically () =
  let n = 12 in
  let exact = Rydberg.build_cutoff ~cutoff:Rydberg.All_pairs ~spec:relaxed_plane ~n in
  let diameter = layout_diameter (initial_positions exact) in
  let trunc =
    Rydberg.build_cutoff
      ~cutoff:(Rydberg.Radius (diameter +. 1e-9))
      ~spec:relaxed_plane ~n
  in
  let target = static_target "ising-cycle" n in
  let options = { Compile_plan.default_options with Compile_plan.plan_cache = false } in
  let key aais = Compile_plan.plan_key ~options ~aais ~target in
  Alcotest.(check string)
    "covering radius shares the all-pairs plan key"
    (key exact.Rydberg.aais) (key trunc.Rydberg.aais);
  let compile ryd =
    Compile_plan.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  let a = compile exact and b = compile trunc in
  check_bits_arr "env" a.Compile_plan.env b.Compile_plan.env;
  check_bits "t_sim" a.Compile_plan.t_sim b.Compile_plan.t_sim;
  check_bits "relative_error" a.Compile_plan.relative_error
    b.Compile_plan.relative_error

(* ---- below the diameter: dropped pairs are exactly those beyond r ---- *)

let test_truncation_drops_exactly_beyond_radius () =
  let n = 120 in
  let ryd = Rydberg.build ~spec:relaxed_plane ~n in
  (* n > auto_threshold: the Auto policy must have truncated. *)
  match ryd.Rydberg.aais.Aais.truncation with
  | None -> Alcotest.fail "Auto cutoff above the threshold left no truncation record"
  | Some t ->
      let radius = Rydberg.auto_radius_factor *. Rydberg.default_spacing in
      check_bits "recorded radius" radius t.Aais.radius;
      let positions = initial_positions ryd in
      let kept = Rydberg.pairs_within ~radius positions in
      Alcotest.(check int) "kept pairs = within-radius pairs"
        (List.length kept) t.Aais.kept_pairs;
      Alcotest.(check int) "kept + dropped = all pairs"
        (n * (n - 1) / 2)
        (t.Aais.kept_pairs + t.Aais.dropped_pairs);
      (* every emitted vdw channel is a within-radius pair and vice versa *)
      let vdw_labels =
        List.sort_uniq String.compare
          (List.filter
             (fun l -> String.length l >= 4 && String.sub l 0 4 = "vdw(")
             (aais_channel_labels ryd.Rydberg.aais))
      in
      let expected =
        List.sort_uniq String.compare
          (List.map (fun (i, j) -> Printf.sprintf "vdw(%d,%d)" i j) kept)
      in
      Alcotest.(check (list string)) "vdw channels = kept pairs" expected vdw_labels;
      if not (t.Aais.dropped_l1 > 0.0 && t.Aais.max_dropped > 0.0) then
        Alcotest.fail "truncation weights must be positive when pairs dropped"

let test_qt029_reported () =
  let n = 120 in
  let ryd = Rydberg.build ~spec:relaxed_plane ~n in
  let target = static_target "ising-cycle" n in
  let diags =
    Qturbo_analysis.Analysis.static_checks ~aais:ryd.Rydberg.aais ~target
      ~t_tar:1.0 ()
  in
  let qt029 =
    List.filter
      (fun d -> String.equal d.Qturbo_analysis.Diagnostic.code "QT029")
      diags
  in
  Alcotest.(check int) "one QT029 on a truncated device" 1 (List.length qt029);
  let exact = Rydberg.build_cutoff ~cutoff:Rydberg.All_pairs ~spec:relaxed_plane ~n in
  let diags_exact =
    Qturbo_analysis.Analysis.static_checks ~aais:exact.Rydberg.aais ~target
      ~t_tar:1.0 ()
  in
  Alcotest.(check int) "no QT029 on the exact device" 0
    (List.length
       (List.filter
          (fun d -> String.equal d.Qturbo_analysis.Diagnostic.code "QT029")
          diags_exact))

(* ---- batched kernel evaluation ≡ one-at-a-time eval_kernel ---- *)

let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun v -> Expr.Var v) (int_range 0 5);
        map (fun c -> Expr.Const c) (float_range (-4.0) 4.0);
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (2, leaf);
            (1, map2 (fun a b -> Expr.Add (a, b)) sub sub);
            (1, map2 (fun a b -> Expr.Sub (a, b)) sub sub);
            (1, map2 (fun a b -> Expr.Mul (a, b)) sub sub);
            (1, map (fun a -> Expr.Cos a) sub);
            (1, map (fun a -> Expr.Sin a) sub);
            (1, map (fun a -> Expr.Pow_int (a, 2)) sub);
          ])
    3

(* rows, plus cut points splitting [0, rows) into consecutive ranges
   (empty ranges included) *)
let arb_expr_rows =
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 1 12) expr_gen)
        (list_size (int_range 0 4) (int_range 0 12)))
  in
  let print (es, cuts) =
    String.concat "; " (List.map (Format.asprintf "%a" Expr.pp) es)
    ^ " | cuts "
    ^ String.concat "," (List.map string_of_int cuts)
  in
  QCheck.make ~print gen

let test_batch_matches_eval_kernel =
  QCheck.Test.make
    ~name:"Expr.Batch.eval = eval_kernel, row by row, bitwise" ~count:200
    arb_expr_rows (fun (exprs, cuts) ->
      let kernels = Array.of_list (List.map Expr.compile exprs) in
      let rows = Array.length kernels in
      let batch = Expr.Batch.pack kernels in
      let env = Array.init 8 (fun i -> 0.25 +. (0.37 *. float_of_int i)) in
      let same out =
        Array.for_all2
          (fun k v ->
            Int64.equal
              (Int64.bits_of_float (Expr.eval_kernel k ~env))
              (Int64.bits_of_float v))
          kernels out
      in
      let whole = Array.make rows Float.nan in
      Expr.Batch.eval batch ~env ~out:whole ~lo:0 ~hi:rows;
      (* the same rows, range by range into one array *)
      let bounds =
        (0 :: List.sort Int.compare (List.map (fun c -> Int.min c rows) cuts))
        @ [ rows ]
      in
      let ranged = Array.make rows Float.nan in
      let rec fill = function
        | lo :: (hi :: _ as rest) ->
            Expr.Batch.eval batch ~env ~out:ranged ~lo ~hi;
            fill rest
        | [ _ ] | [] -> ()
      in
      fill bounds;
      Expr.Batch.length batch = rows && same whole && same ranged)

(* ---- row-parallel residual and Jacobian: 1 vs 4 domains ---- *)

(* A synthetic position component wide enough for the pool: 33,540
   van-der-Waals-shaped rows [c/(x_a − x_b)^6] over the 78 pairs of 13
   coordinates on a line (x0 pinned at the origin, 12 free), each pair
   repeated with three constants.  Rows, and so Jacobian entries (every
   row has a free coordinate), reach [Fixed_solver.par_threshold], so
   [~domains:4] runs the residual batch in row ranges and the Jacobian
   by entry; the solve must give the bits of [~domains:1]. *)
let test_row_parallel_position_solve () =
  let module Pauli = Qturbo_pauli.Pauli in
  let module Pauli_string = Qturbo_pauli.Pauli_string in
  let n = 13 in
  let pool = Variable.create_pool () in
  for i = 0 to n - 1 do
    let lo, hi = if i = 0 then (0.0, 0.0) else (-200.0, 200.0) in
    ignore
      (Variable.fresh pool ~name:(Printf.sprintf "x%d" i)
         ~kind:Variable.Runtime_fixed ~lo ~hi
         ~init:(7.5 *. float_of_int i)
         ())
  done;
  let vars = Variable.all pool in
  let templates =
    Array.map
      (fun c ->
        Expr.template
          Expr.(Const c / Pow_int (Sub (Var 0, Var 1), 6)))
      [| 862690.0; 431345.0; 1725380.0 |]
  in
  let pairs =
    Array.of_list
      (List.concat
         (List.init n (fun a ->
              List.init (n - 1 - a) (fun k -> (a, a + 1 + k)))))
  in
  let rows = 430 * Array.length pairs in
  Alcotest.(check bool) "rows above the pool threshold" true
    (rows >= Fixed_solver.par_threshold);
  let channels =
    Array.init rows (fun cid ->
        let a, b = pairs.(cid mod Array.length pairs) in
        Instruction.channel ~cid ~label:(Printf.sprintf "row%d" cid)
          ~template:templates.(cid / Array.length pairs mod 3)
          ~ids:[| a; b |]
          ~effects:
            [ { Instruction.pstring = Pauli_string.two a Pauli.Z b Pauli.Z;
                coeff = 1.0 } ]
          ~hint:Instruction.Hint_fixed)
  in
  (* targets from a reference layout 1.1× the initial one, perturbed
     per row so the system is inconsistent and the solve iterates *)
  let t_sim = 0.8 in
  let reference = Array.init n (fun i -> 8.25 *. float_of_int i) in
  let alpha =
    Array.init rows (fun cid ->
        Instruction.eval_channel channels.(cid) ~env:reference
        *. t_sim
        *. (1.0 +. (0.01 *. float_of_int (cid mod 7))))
  in
  match Locality.decompose ~channels ~n_vars:n with
  | [ comp ] ->
      let solve domains =
        fst
          (Fixed_solver.solve ~domains ~sup:Qturbo_resilience.Supervisor.none
             ~alpha ~t_sim
             (Fixed_solver.prepare ~vars ~channels comp))
      in
      let r1 = solve 1 and r4 = solve 4 in
      let values (r : Fixed_solver.result) =
        Array.of_list (List.map snd r.Fixed_solver.assignments)
      in
      Alcotest.(check (list int)) "same variables"
        (List.map fst r1.Fixed_solver.assignments)
        (List.map fst r4.Fixed_solver.assignments);
      check_bits_arr "assignments" (values r1) (values r4);
      check_bits "eps2" r1.Fixed_solver.eps2 r4.Fixed_solver.eps2;
      Alcotest.(check bool) "finite eps2" true
        (Float.is_finite r1.Fixed_solver.eps2)
  | _ -> Alcotest.fail "one position component expected"

(* ---- sparse position-solve path: deterministic, warm ≡ cold ---- *)

let test_sparse_path_deterministic () =
  (* n = 150 on the plane: 297 free position variables, above
     Fixed_solver.sparse_threshold — the CSR/CG path actually runs. *)
  let n = 150 in
  Alcotest.(check bool)
    "n=150 plane really exercises the sparse path" true
    ((2 * n) - 3 >= Fixed_solver.sparse_threshold);
  let target = static_target "ising-cycle" n in
  let compile ~domains ~plan_cache =
    let ryd = Rydberg.build ~spec:relaxed_plane ~n in
    let options =
      { Compile_plan.default_options with Compile_plan.domains; plan_cache }
    in
    Compile_plan.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  let base = compile ~domains:1 ~plan_cache:false in
  Alcotest.(check bool) "sparse compile not degraded" false
    base.Compile_plan.degraded;
  let par = compile ~domains:4 ~plan_cache:false in
  check_bits_arr "domains=1 vs domains=4 env" base.Compile_plan.env
    par.Compile_plan.env;
  check_bits "domains=1 vs domains=4 t_sim" base.Compile_plan.t_sim
    par.Compile_plan.t_sim;
  Compile_plan.clear_caches ();
  let cold = compile ~domains:2 ~plan_cache:true in
  let warm = compile ~domains:2 ~plan_cache:true in
  Alcotest.(check bool) "second compile hits the plan cache" true
    warm.Compile_plan.plan.Compile_plan.cache_hit;
  check_bits_arr "warm vs cold env" cold.Compile_plan.env warm.Compile_plan.env;
  check_bits "warm vs cold t_sim" cold.Compile_plan.t_sim
    warm.Compile_plan.t_sim;
  check_bits_arr "cold path matches cacheless" base.Compile_plan.env
    cold.Compile_plan.env

let () =
  Alcotest.run "scaling"
    [
      ( "cutoff",
        [
          QCheck_alcotest.to_alcotest test_pairs_within_matches_brute_force;
          QCheck_alcotest.to_alcotest test_covering_radius_is_exact;
          Alcotest.test_case "covering radius compiles identically" `Quick
            test_covering_radius_compiles_identically;
          Alcotest.test_case "drops exactly the beyond-radius pairs" `Quick
            test_truncation_drops_exactly_beyond_radius;
          Alcotest.test_case "QT029 truncation diagnostic" `Quick
            test_qt029_reported;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest test_batch_matches_eval_kernel;
          Alcotest.test_case "row-parallel position solve, 1 vs 4 domains"
            `Quick test_row_parallel_position_solve;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "sparse solve deterministic" `Slow
            test_sparse_path_deterministic;
        ] );
    ]
