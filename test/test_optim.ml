(* Tests for qturbo.optim: numeric Jacobians, Levenberg–Marquardt,
   Nelder–Mead, bounds transforms, scalar search, multistart. *)

open Qturbo_optim

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

(* ---- Numeric_jacobian ---- *)

let test_jacobian_linear () =
  (* F(x) = A x has Jacobian A exactly *)
  let f x = [| (2.0 *. x.(0)) +. (3.0 *. x.(1)); -.x.(0) +. (5.0 *. x.(1)) |] in
  let j = Numeric_jacobian.forward f [| 1.0; 2.0 |] in
  check_close "j00" 1e-5 2.0 (Qturbo_linalg.Mat.get j 0 0);
  check_close "j01" 1e-5 3.0 (Qturbo_linalg.Mat.get j 0 1);
  check_close "j10" 1e-5 (-1.0) (Qturbo_linalg.Mat.get j 1 0);
  check_close "j11" 1e-5 5.0 (Qturbo_linalg.Mat.get j 1 1)

let test_jacobian_central_more_accurate () =
  let f x = [| exp x.(0) |] in
  let x = [| 1.0 |] in
  let truth = exp 1.0 in
  let err_f =
    Float.abs (Qturbo_linalg.Mat.get (Numeric_jacobian.forward f x) 0 0 -. truth)
  in
  let err_c =
    Float.abs (Qturbo_linalg.Mat.get (Numeric_jacobian.central f x) 0 0 -. truth)
  in
  Alcotest.(check bool) "central beats forward" true (err_c <= err_f)

(* ---- Levenberg_marquardt ---- *)

let test_lm_linear_system () =
  let f x = [| x.(0) -. 3.0; x.(1) +. 2.0 |] in
  let r = Levenberg_marquardt.minimize f [| 0.0; 0.0 |] in
  check_close "x0" 1e-6 3.0 r.Objective.x.(0);
  check_close "x1" 1e-6 (-2.0) r.Objective.x.(1);
  Alcotest.(check bool) "converged" true r.Objective.converged

let test_lm_rosenbrock () =
  (* classic curved valley in residual form *)
  let f x = [| 10.0 *. (x.(1) -. (x.(0) *. x.(0))); 1.0 -. x.(0) |] in
  let r = Levenberg_marquardt.minimize f [| -1.2; 1.0 |] in
  check_close "x0" 1e-4 1.0 r.Objective.x.(0);
  check_close "x1" 1e-4 1.0 r.Objective.x.(1)

let test_lm_vdw_style () =
  (* solve C/(d^6) = 1.25 for d, the §5.2 position problem in miniature *)
  let c = 862690.0 /. 4.0 in
  let f x = [| (c /. (x.(0) ** 6.0)) -. 1.25 |] in
  let r = Levenberg_marquardt.minimize f [| 9.0 |] in
  check_close "distance" 1e-3 7.4614 r.Objective.x.(0)

let test_lm_exact_jacobian () =
  let f x = [| (x.(0) *. x.(0)) -. 4.0 |] in
  let jacobian x =
    Objective.Dense (Qturbo_linalg.Mat.of_rows [| [| 2.0 *. x.(0) |] |])
  in
  let r = Levenberg_marquardt.minimize ~jacobian f [| 1.0 |] in
  check_close "root" 1e-6 2.0 r.Objective.x.(0)

let test_lm_budget_exhaustion () =
  let options =
    { Levenberg_marquardt.default_options with max_evaluations = 3 }
  in
  let f x = [| x.(0) -. 100.0 |] in
  let r = Levenberg_marquardt.minimize ~options f [| 0.0 |] in
  Alcotest.(check bool) "not converged" false r.Objective.converged;
  Alcotest.(check bool) "within budget" true (r.Objective.evaluations <= 3)

let test_lm_cost_target_stops_early () =
  let evaluations = ref 0 in
  let f x =
    incr evaluations;
    [| x.(0) -. 1.0 |]
  in
  let options =
    { Levenberg_marquardt.default_options with cost_target = 1.0 }
  in
  (* initial cost 0.5·(0-1)² = 0.5 <= 1.0: stop immediately *)
  let r = Levenberg_marquardt.minimize ~options f [| 0.0 |] in
  Alcotest.(check bool) "converged immediately" true r.Objective.converged;
  Alcotest.(check int) "single evaluation" 1 !evaluations

let test_lm_accept_residual () =
  let options =
    {
      Levenberg_marquardt.default_options with
      accept_residual = Some (fun r -> Qturbo_linalg.Vec.norm1 r <= 0.5);
    }
  in
  let f x = [| x.(0) -. 10.0 |] in
  let r = Levenberg_marquardt.minimize ~options f [| 0.0 |] in
  (* stops at the first iterate within the L1 tolerance, not the optimum *)
  Alcotest.(check bool) "within tolerance" true
    (Float.abs (r.Objective.x.(0) -. 10.0) <= 0.5 +. 1e-9)

let test_lm_multidimensional_fit () =
  (* fit y = a·exp(b·t) through exact data *)
  let ts = [| 0.0; 0.5; 1.0; 1.5; 2.0 |] in
  let ys = Array.map (fun t -> 2.0 *. exp (0.7 *. t)) ts in
  let f x = Array.mapi (fun i t -> (x.(0) *. exp (x.(1) *. t)) -. ys.(i)) ts in
  let r = Levenberg_marquardt.minimize f [| 1.0; 0.0 |] in
  check_close "a" 1e-5 2.0 r.Objective.x.(0);
  check_close "b" 1e-5 0.7 r.Objective.x.(1)

(* r_i = x_i + x_i³ − t_i: separable, one Jacobian entry per row, the
   CSR's value array refilled in place as the position solve does *)
let separable_csr n =
  let module Csr = Qturbo_linalg.Csr in
  let t = Array.init n (fun i -> 1.0 +. float_of_int (i mod 7)) in
  let f x = Array.init n (fun i -> x.(i) +. (x.(i) *. x.(i) *. x.(i)) -. t.(i)) in
  let csr = Csr.of_row_lists ~cols:n (Array.init n (fun i -> [ (i, 0.0) ])) in
  let values = Csr.values csr in
  let jacobian x =
    for i = 0 to n - 1 do
      values.(i) <- 1.0 +. (3.0 *. x.(i) *. x.(i))
    done;
    Objective.Csr csr
  in
  (f, jacobian)

let test_lm_csr_across_cg_threshold () =
  (* the last LU-sized and the first CG-sized problem both converge *)
  List.iter
    (fun n ->
      let f, jacobian = separable_csr n in
      let r = Levenberg_marquardt.minimize ~jacobian f (Array.make n 0.5) in
      let msg s = Printf.sprintf "n=%d: %s" n s in
      Alcotest.(check bool) (msg "converged") true r.Objective.converged;
      Alcotest.(check bool) (msg "cost at zero") true (r.Objective.cost < 1e-16))
    Levenberg_marquardt.[ cg_threshold - 1; cg_threshold ]

let test_lm_cg_allocation () =
  (* bytes, not time: an n×n LU buffer at n = 2,000 alone is 32 MB *)
  let n = 2_000 in
  let f, jacobian = separable_csr n in
  let x0 = Array.make n 0.5 in
  let before = Qturbo_util.Alloc.bytes () in
  let r = Levenberg_marquardt.minimize ~jacobian f x0 in
  let bytes = Qturbo_util.Alloc.bytes () -. before in
  Alcotest.(check bool) "converged" true r.Objective.converged;
  if bytes > 8e6 then
    Alcotest.failf "a CG-sized solve allocated %.1f MB (bound 8 MB)"
      (bytes /. 1e6)

(* ---- Nelder_mead ---- *)

let test_nm_quadratic () =
  let f x = ((x.(0) -. 1.0) ** 2.0) +. ((x.(1) +. 2.0) ** 2.0) in
  let r = Nelder_mead.minimize f [| 0.0; 0.0 |] in
  check_close "x0" 1e-4 1.0 r.Objective.x.(0);
  check_close "x1" 1e-4 (-2.0) r.Objective.x.(1)

let test_nm_1d () =
  let f x = Float.abs (cos x.(0) -. 1.0) in
  let r = Nelder_mead.minimize f [| 0.7 |] in
  check_close "cos minimum" 1e-3 0.0 (Float.abs r.Objective.x.(0))

let test_nm_empty_input () =
  let r = Nelder_mead.minimize (fun _ -> 42.0) [||] in
  check_close "value" 1e-12 42.0 r.Objective.cost

let test_nm_nan_tolerant () =
  (* NaN regions are treated as +inf and avoided *)
  let f x = if x.(0) < 0.0 then Float.nan else (x.(0) -. 2.0) ** 2.0 in
  let r = Nelder_mead.minimize f [| 1.0 |] in
  check_close "avoids NaN region" 1e-3 2.0 r.Objective.x.(0)

(* ---- Bounds ---- *)

let test_bounds_make_validates () =
  Alcotest.check_raises "inverted" (Invalid_argument "Bounds.make: lo > hi")
    (fun () -> ignore (Bounds.make ~lo:2.0 ~hi:1.0))

let test_bounds_two_sided_roundtrip () =
  let t = Bounds.transform [| Bounds.make ~lo:(-1.0) ~hi:3.0 |] in
  List.iter
    (fun x ->
      let u = Bounds.to_internal t [| x |] in
      let x' = (Bounds.of_internal t u).(0) in
      check_close "roundtrip" 1e-9 x x')
    [ -1.0; -0.5; 0.0; 1.7; 3.0 ]

let test_bounds_one_sided_roundtrip () =
  let t = Bounds.transform [| Bounds.make ~lo:2.0 ~hi:infinity |] in
  List.iter
    (fun x ->
      let u = Bounds.to_internal t [| x |] in
      check_close "roundtrip" 1e-9 x (Bounds.of_internal t u).(0))
    [ 2.0; 2.5; 100.0 ]

let test_bounds_upper_roundtrip () =
  let t = Bounds.transform [| Bounds.make ~lo:neg_infinity ~hi:(-1.0) |] in
  List.iter
    (fun x ->
      let u = Bounds.to_internal t [| x |] in
      check_close "roundtrip" 1e-9 x (Bounds.of_internal t u).(0))
    [ -1.0; -4.0; -50.0 ]

let test_bounds_image_inside () =
  let b = Bounds.make ~lo:0.0 ~hi:2.5 in
  let t = Bounds.transform [| b |] in
  List.iter
    (fun u ->
      let x = (Bounds.of_internal t [| u |]).(0) in
      Alcotest.(check bool) "inside" true (Bounds.contains b x))
    [ -1e6; -3.0; 0.0; 1.0; 7.0; 1e6 ]

let test_bounds_degenerate () =
  let t = Bounds.transform [| Bounds.make ~lo:5.0 ~hi:5.0 |] in
  check_close "pinned" 1e-12 5.0 (Bounds.of_internal t [| 123.0 |]).(0)

let test_bounded_lm () =
  (* unconstrained optimum at x = 10 but the box stops at 2 *)
  let b = [| Bounds.make ~lo:0.0 ~hi:2.0 |] in
  let t = Bounds.transform b in
  let f x = [| x.(0) -. 10.0 |] in
  let r =
    Levenberg_marquardt.minimize (Bounds.wrap_residual t f)
      (Bounds.to_internal t [| 1.0 |])
  in
  let x = (Bounds.of_internal t r.Objective.x).(0) in
  check_close "at the bound" 1e-5 2.0 x

(* ---- Scalar ---- *)

let test_bisect_root () =
  let r = Scalar.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  check_close "sqrt 2" 1e-9 (sqrt 2.0) r.Scalar.root;
  Alcotest.(check bool) "converged" true r.Scalar.converged

let test_bisect_rejects_no_sign_change () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Scalar.bisect: no sign change on bracket") (fun () ->
      ignore (Scalar.bisect ~f:(fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0 ()))

let test_bisect_predicate () =
  let threshold = 0.7318 in
  let r = Scalar.bisect_predicate ~f:(fun x -> x >= threshold) ~lo:0.0 ~hi:1.0 () in
  check_close "threshold" 1e-6 threshold r.Scalar.root;
  Alcotest.(check bool) "converged" true r.Scalar.converged

let test_bisect_predicate_true_at_lo () =
  check_close "lo" 1e-12 0.3
    (Scalar.bisect_predicate ~f:(fun _ -> true) ~lo:0.3 ~hi:1.0 ()).Scalar.root

let test_golden_min () =
  let r = Scalar.golden_min ~f:(fun x -> (x -. 1.3) ** 2.0) ~lo:(-5.0) ~hi:5.0 () in
  check_close "argmin" 1e-6 1.3 r.Scalar.argmin;
  check_close "min" 1e-9 0.0 r.Scalar.minimum;
  Alcotest.(check bool) "converged" true r.Scalar.converged

(* ---- Multistart ---- *)

let test_multistart_finds_global () =
  (* two basins; only the one near 4 satisfies acceptance *)
  let rng = Qturbo_util.Rng.create ~seed:31L in
  let solves = ref 0 in
  let solve x0 =
    incr solves;
    let f x = [| ((x.(0) -. 4.0) *. (x.(0) +. 3.0)) /. 10.0 |] in
    Levenberg_marquardt.minimize f x0
  in
  let best =
    Multistart.search ~rng ~starts:20
      ~sample:(fun rng -> [| Qturbo_util.Rng.uniform rng ~lo:(-10.0) ~hi:10.0 |])
      ~solve
      ~accept:(fun r -> r.Objective.cost < 1e-12 && r.Objective.x.(0) > 0.0)
  in
  (match best with
  | None -> Alcotest.fail "no run kept"
  | Some run ->
      Alcotest.(check bool) "found a root" true (run.Multistart.report.Objective.cost < 1e-10);
      Alcotest.(check int) "stopped at the accepted start"
        (run.Multistart.start_index + 1) !solves);
  Alcotest.(check bool) "used at least one start" true (!solves >= 1)

let test_sample_box () =
  let rng = Qturbo_util.Rng.create ~seed:37L in
  let bounds = [| Bounds.make ~lo:1.0 ~hi:2.0; Bounds.unbounded |] in
  for _ = 1 to 100 do
    let x = Multistart.sample_box bounds ~fallback:5.0 rng in
    Alcotest.(check bool) "first in box" true (x.(0) >= 1.0 && x.(0) < 2.0);
    Alcotest.(check bool) "second in fallback" true (x.(1) >= -5.0 && x.(1) < 5.0)
  done

(* Regression: acceptance must report the run that fired it, not a later
   start that happens to reach a lower cost.  Returns the winner and the
   number of starts solved, so the early exit is observable. *)
let synthetic_search ~costs ~accept =
  let rng = Qturbo_util.Rng.create ~seed:7L in
  (* start i samples its point before it is solved, so a counter tags
     each start with its index *)
  let counter = ref 0 in
  let sample _rng =
    let k = !counter in
    incr counter;
    [| float_of_int k |]
  in
  let solves = ref 0 in
  let solve x0 =
    incr solves;
    {
      Objective.x = x0;
      cost = costs.(int_of_float x0.(0));
      residual_norm = 0.0;
      iterations = 1;
      evaluations = 1;
      converged = true;
      stop = Objective.Stop_converged;
    }
  in
  let best =
    Multistart.search ~rng ~starts:(Array.length costs) ~sample ~solve ~accept
  in
  (best, !solves)

let test_multistart_reports_accepted_run () =
  (* start 2 is accepted first; start 6 is accepted too and cheaper *)
  let costs = [| 10.0; 9.0; 4.0; 7.0; 6.0; 5.5; 1.0; 3.0 |] in
  let accept r = r.Objective.cost < 5.0 in
  match synthetic_search ~costs ~accept with
  | None, _ -> Alcotest.fail "expected a run"
  | Some run, solves ->
      Alcotest.(check int) "accepted start" 2 run.Multistart.start_index;
      Alcotest.(check (float 0.0)) "accepted cost, not the global best" 4.0
        run.Multistart.report.Objective.cost;
      Alcotest.(check int) "solving stops at acceptance" 3 solves

let test_multistart_best_tie_prefers_earlier () =
  (* nothing accepted: best by (cost, start_index); the cost tie between
     starts 1 and 3 keeps the earlier one *)
  let costs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  let accept _ = false in
  match synthetic_search ~costs ~accept with
  | None, _ -> Alcotest.fail "expected a run"
  | Some run, solves ->
      Alcotest.(check int) "earlier tie wins" 1 run.Multistart.start_index;
      Alcotest.(check int) "all starts consumed" 5 solves

let test_multistart_all_diverged () =
  let costs = [| Float.nan; Float.infinity; Float.nan |] in
  match synthetic_search ~costs ~accept:(fun _ -> false) with
  | None, solves -> Alcotest.(check int) "all starts consumed" 3 solves
  | Some _, _ -> Alcotest.fail "non-finite costs must yield None"

(* ---- qcheck properties ---- *)

let prop_bounds_roundtrip =
  QCheck.Test.make ~name:"bounds transform roundtrips interior points" ~count:300
    QCheck.(triple (float_range (-10.) 10.) (float_range 0.1 10.) (float_range 0.01 0.99))
    (fun (lo, width, frac) ->
      let b = Bounds.make ~lo ~hi:(lo +. width) in
      let x = lo +. (frac *. width) in
      let t = Bounds.transform [| b |] in
      let x' = (Bounds.of_internal t (Bounds.to_internal t [| x |])).(0) in
      Float.abs (x -. x') < 1e-8)

let prop_of_internal_inside =
  QCheck.Test.make ~name:"of_internal always lands inside the box" ~count:300
    QCheck.(triple (float_range (-10.) 10.) (float_range 0.0 10.) (float_range (-50.) 50.))
    (fun (lo, width, u) ->
      let b = Bounds.make ~lo ~hi:(lo +. width) in
      let t = Bounds.transform [| b |] in
      Bounds.contains b (Bounds.of_internal t [| u |]).(0))

let prop_lm_decreases_cost =
  QCheck.Test.make ~name:"LM never returns worse than the start" ~count:100
    QCheck.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
      let f x = [| x.(0) -. a; (x.(0) *. x.(1)) -. b |] in
      let x0 = [| 0.5; 0.5 |] in
      let start_cost = Objective.cost_of_residual (f x0) in
      let r = Levenberg_marquardt.minimize f x0 in
      r.Objective.cost <= start_cost +. 1e-12)

(* LM with a CSR Jacobian against LM with the dense Jacobian of the same
   problem: r_i(x) = Σ_{j∈S_i} (a_ij·x_j² + d_ij·x_j) − t_i over a random
   sparsity pattern S (ascending columns, rows possibly empty), so
   J_ij = 2·a_ij·x_j + d_ij, an exact zero wherever x_j = 0 and d_ij = 0.
   The CSR Jacobian refills one value array in place, as the position
   solve does. *)
let sparse_lsq_gen =
  let open QCheck.Gen in
  let coeff = frequency [ (4, float_range (-2.0) 2.0); (1, return 0.0) ] in
  int_range 1 6 >>= fun n ->
  int_range 1 8 >>= fun m ->
  let row =
    list_repeat n (triple bool coeff coeff) >>= fun picks ->
    float_range (-3.0) 3.0 >>= fun t ->
    return
      ( List.concat
          (List.mapi
             (fun j (keep, a, d) -> if keep then [ (j, a, d) ] else [])
             picks),
        t )
  in
  list_repeat m row >>= fun rows ->
  list_repeat n (frequency [ (4, float_range (-2.0) 2.0); (1, return 0.0) ])
  >>= fun x0 -> return (n, Array.of_list rows, Array.of_list x0)

let print_lsq (n, rows, x0) =
  Printf.sprintf "n=%d rows=[%s] x0=[%s]" n
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (cells, t) ->
               Printf.sprintf "{%s} - %h"
                 (String.concat " "
                    (List.map
                       (fun (j, a, d) -> Printf.sprintf "%d:%h,%h" j a d)
                       cells))
                 t)
             rows)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") x0)))

let prop_lm_csr_matches_dense =
  QCheck.Test.make ~name:"LM with a CSR Jacobian == with the dense one, bitwise"
    ~count:500
    (QCheck.make ~print:print_lsq sparse_lsq_gen)
    (fun (n, rows, x0) ->
      let module Csr = Qturbo_linalg.Csr in
      let module Mat = Qturbo_linalg.Mat in
      let m = Array.length rows in
      let f x =
        Array.map
          (fun (cells, t) ->
            List.fold_left
              (fun acc (j, a, d) -> acc +. ((a *. x.(j) *. x.(j)) +. (d *. x.(j))))
              0.0 cells
            -. t)
          rows
      in
      let entry x (j, a, d) = (2.0 *. a *. x.(j)) +. d in
      let csr =
        Csr.of_row_lists ~cols:n
          (Array.map (fun (cells, _) -> List.map (fun (j, _, _) -> (j, 0.0)) cells) rows)
      in
      let csr_jacobian x =
        let values = Csr.values csr in
        let t = ref 0 in
        Array.iter
          (fun (cells, _) ->
            List.iter
              (fun cell ->
                values.(!t) <- entry x cell;
                incr t)
              cells)
          rows;
        Objective.Csr csr
      in
      let dense_jacobian x =
        let d = Mat.create ~rows:m ~cols:n in
        Array.iteri
          (fun i (cells, _) ->
            List.iter (fun ((j, _, _) as cell) -> Mat.set d i j (entry x cell)) cells)
          rows;
        Objective.Dense d
      in
      let options = { Levenberg_marquardt.default_options with max_iterations = 50 } in
      let a = Levenberg_marquardt.minimize ~options ~jacobian:csr_jacobian f x0 in
      let b = Levenberg_marquardt.minimize ~options ~jacobian:dense_jacobian f x0 in
      let bits = Int64.bits_of_float in
      Array.for_all2 (fun p q -> bits p = bits q) a.Objective.x b.Objective.x
      && bits a.Objective.cost = bits b.Objective.cost
      && bits a.Objective.residual_norm = bits b.Objective.residual_norm
      && a.Objective.iterations = b.Objective.iterations
      && a.Objective.evaluations = b.Objective.evaluations
      && a.Objective.converged = b.Objective.converged
      && a.Objective.stop = b.Objective.stop)

let () =
  Alcotest.run "optim"
    [
      ( "jacobian",
        [
          Alcotest.test_case "linear exact" `Quick test_jacobian_linear;
          Alcotest.test_case "central accuracy" `Quick
            test_jacobian_central_more_accurate;
        ] );
      ( "levenberg_marquardt",
        [
          Alcotest.test_case "linear" `Quick test_lm_linear_system;
          Alcotest.test_case "rosenbrock" `Quick test_lm_rosenbrock;
          Alcotest.test_case "van-der-Waals style" `Quick test_lm_vdw_style;
          Alcotest.test_case "exact jacobian" `Quick test_lm_exact_jacobian;
          Alcotest.test_case "budget exhaustion" `Quick test_lm_budget_exhaustion;
          Alcotest.test_case "cost target" `Quick test_lm_cost_target_stops_early;
          Alcotest.test_case "accept residual" `Quick test_lm_accept_residual;
          Alcotest.test_case "exponential fit" `Quick test_lm_multidimensional_fit;
          Alcotest.test_case "CSR on both sides of cg_threshold" `Quick
            test_lm_csr_across_cg_threshold;
          Alcotest.test_case "CG solve holds no n x n buffer" `Quick
            test_lm_cg_allocation;
        ] );
      ( "nelder_mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nm_quadratic;
          Alcotest.test_case "1d cosine" `Quick test_nm_1d;
          Alcotest.test_case "empty input" `Quick test_nm_empty_input;
          Alcotest.test_case "nan tolerant" `Quick test_nm_nan_tolerant;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "validation" `Quick test_bounds_make_validates;
          Alcotest.test_case "two-sided roundtrip" `Quick
            test_bounds_two_sided_roundtrip;
          Alcotest.test_case "lower-only roundtrip" `Quick
            test_bounds_one_sided_roundtrip;
          Alcotest.test_case "upper-only roundtrip" `Quick test_bounds_upper_roundtrip;
          Alcotest.test_case "image inside box" `Quick test_bounds_image_inside;
          Alcotest.test_case "degenerate interval" `Quick test_bounds_degenerate;
          Alcotest.test_case "bounded LM" `Quick test_bounded_lm;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "bisect root" `Quick test_bisect_root;
          Alcotest.test_case "bisect needs bracket" `Quick
            test_bisect_rejects_no_sign_change;
          Alcotest.test_case "bisect predicate" `Quick test_bisect_predicate;
          Alcotest.test_case "predicate true at lo" `Quick
            test_bisect_predicate_true_at_lo;
          Alcotest.test_case "golden min" `Quick test_golden_min;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "finds accepted basin" `Quick test_multistart_finds_global;
          Alcotest.test_case "reports the accepted run" `Quick
            test_multistart_reports_accepted_run;
          Alcotest.test_case "cost tie keeps earlier start" `Quick
            test_multistart_best_tie_prefers_earlier;
          Alcotest.test_case "all-diverged yields None" `Quick
            test_multistart_all_diverged;
          Alcotest.test_case "sample box" `Quick test_sample_box;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bounds_roundtrip;
            prop_of_internal_inside;
            prop_lm_decreases_cost;
            prop_lm_csr_matches_dense;
          ] );
    ]
