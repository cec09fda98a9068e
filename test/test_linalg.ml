(* Tests for qturbo.linalg: vectors, matrices, LU, QR least squares, CSR,
   and the greedy sparse solver that powers the global linear system. *)

open Qturbo_linalg

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.12g vs %.12g" msg a b

(* ---- Vec ---- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 a);
  check_float "norm1" 6.0 (Vec.norm1 a);
  check_float "norm_inf" 3.0 (Vec.norm_inf a)

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 ~x:[| 3.0; 4.0 |] ~y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 7.0; 9.0 |] y

let test_vec_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.add: dimension mismatch")
    (fun () -> ignore (Vec.add [| 1.0 |] [| 1.0; 2.0 |]))

let test_vec_max_abs_index () =
  Alcotest.(check int) "index" 1 (Vec.max_abs_index [| 1.0; -5.0; 3.0 |])

(* ---- Mat ---- *)

let test_mat_mul () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_identity_mul () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "I*a = a" true (Mat.equal (Mat.mul (Mat.identity 2) a) a)

let test_mat_mul_vec () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "Ax" [| 5.0; 11.0 |]
    (Mat.mul_vec a [| 1.0; 2.0 |])

let test_mat_mul_vec_t () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "A'y" [| 7.0; 10.0 |]
    (Mat.mul_vec_t a [| 1.0; 2.0 |])

let test_mat_transpose () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows at);
  check_float "entry" 6.0 (Mat.get at 2 1)

let test_mat_norm1 () =
  let a = Mat.of_rows [| [| 1.0; -7.0 |]; [| -2.0; 3.0 |] |] in
  check_float "norm1 = max col sum" 10.0 (Mat.norm1 a);
  check_float "norm_inf = max row sum" 8.0 (Mat.norm_inf a)

let test_mat_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---- Lu ---- *)

let test_lu_solve () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a [| 5.0; 10.0 |] in
  Alcotest.(check (array (float 1e-9))) "solution" [| 1.0; 3.0 |] x

let test_lu_needs_pivoting () =
  (* zero top-left pivot forces a row swap *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve a [| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "swap solution" [| 3.0; 2.0 |] x

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Lu.solve a [| 1.0; 2.0 |] with
  | _ -> Alcotest.fail "singular matrix accepted"
  | exception Lu.Singular _ -> ()

let test_lu_det () =
  let a = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  check_float "det" 6.0 (Lu.det (Lu.factorize a))

let test_lu_det_sign () =
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det with swap" (-1.0) (Lu.det (Lu.factorize a))

let test_lu_inverse () =
  let a = Mat.of_rows [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let prod = Mat.mul a (Lu.inverse a) in
  Alcotest.(check bool) "a * inv a = I" true
    (Mat.equal ~rtol:1e-9 ~atol:1e-9 prod (Mat.identity 2))

(* ---- Qr ---- *)

let test_qr_square_solve () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Qr.least_squares a [| 5.0; 10.0 |] in
  Alcotest.(check (array (float 1e-9))) "square system" [| 1.0; 3.0 |] x

let test_qr_overdetermined () =
  (* best line through (0,1) (1,3) (2,5): y = 2x + 1, exact fit *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |] |] in
  let x = Qr.least_squares a [| 1.0; 3.0; 5.0 |] in
  Alcotest.(check (array (float 1e-9))) "fit" [| 2.0; 1.0 |] x

let test_qr_inconsistent_least_squares () =
  (* x = 0 and x = 2: least squares gives x = 1, residual sqrt 2 *)
  let a = Mat.of_rows [| [| 1.0 |]; [| 1.0 |] |] in
  let x = Qr.least_squares a [| 0.0; 2.0 |] in
  check_close "solution" 1e-9 1.0 x.(0);
  check_close "residual" 1e-9 (sqrt 2.0) (Qr.residual_norm a x [| 0.0; 2.0 |])

let test_qr_rank_deficient () =
  (* second column is twice the first: free column must be zeroed *)
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  let x = Qr.least_squares a [| 3.0; 6.0 |] in
  let r = Qr.residual_norm a x [| 3.0; 6.0 |] in
  check_close "consistent rank-deficient residual" 1e-8 0.0 r

let test_qr_underdetermined () =
  let a = Mat.of_rows [| [| 1.0; 1.0 |] |] in
  let x = Qr.least_squares a [| 4.0 |] in
  check_close "satisfies row" 1e-9 4.0 (x.(0) +. x.(1))

let test_qr_random_consistency () =
  (* random well-conditioned systems: QR agrees with LU *)
  let rng = Qturbo_util.Rng.create ~seed:99L in
  for _trial = 1 to 20 do
    let n = 1 + Qturbo_util.Rng.int rng ~bound:6 in
    let a =
      Mat.init ~rows:n ~cols:n (fun i j ->
          Qturbo_util.Rng.uniform rng ~lo:(-1.0) ~hi:1.0
          +. if i = j then 3.0 else 0.0)
    in
    let b =
      Array.init n (fun _ -> Qturbo_util.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
    in
    let x_lu = Lu.solve a b and x_qr = Qr.least_squares a b in
    if not (Qturbo_util.Float_cmp.approx_array ~rtol:1e-7 ~atol:1e-8 x_lu x_qr)
    then Alcotest.fail "LU and QR disagree"
  done

(* ---- Csr ---- *)

let test_csr_roundtrip () =
  let m =
    Mat.of_rows [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 0.0; 0.0 |]; [| 3.0; 4.0; 0.0 |] |]
  in
  let s = Csr.of_dense m in
  Alcotest.(check int) "nnz" 4 (Csr.nnz s);
  Alcotest.(check bool) "roundtrip" true (Mat.equal (Csr.to_dense s) m)

let test_csr_duplicate_triplets_sum () =
  let s =
    Csr.of_triplets ~rows:1 ~cols:1
      [
        { Csr.row = 0; col = 0; value = 1.5 };
        { Csr.row = 0; col = 0; value = 2.5 };
      ]
  in
  check_float "summed" 4.0 (Csr.get s 0 0)

let test_csr_mul_vec () =
  let s =
    Csr.of_triplets ~rows:2 ~cols:3
      [
        { Csr.row = 0; col = 0; value = 1.0 };
        { Csr.row = 0; col = 2; value = 2.0 };
        { Csr.row = 1; col = 1; value = 3.0 };
      ]
  in
  Alcotest.(check (array (float 1e-12))) "Ax" [| 7.0; 6.0 |]
    (Csr.mul_vec s [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (array (float 1e-12))) "A'y" [| 1.0; 6.0; 2.0 |]
    (Csr.mul_vec_t s [| 1.0; 2.0 |])

let test_csr_norm1_matches_dense () =
  let m = Mat.of_rows [| [| 1.0; -7.0 |]; [| -2.0; 3.0 |] |] in
  check_float "norm1" (Mat.norm1 m) (Csr.norm1 (Csr.of_dense m))

let test_csr_transpose () =
  let s =
    Csr.of_triplets ~rows:2 ~cols:3 [ { Csr.row = 0; col = 2; value = 5.0 } ]
  in
  let t = Csr.transpose s in
  Alcotest.(check int) "rows" 3 (Csr.rows t);
  check_float "moved" 5.0 (Csr.get t 2 0)

let test_csr_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Csr.of_triplets: entry out of range") (fun () ->
      ignore (Csr.of_triplets ~rows:1 ~cols:1 [ { Csr.row = 1; col = 0; value = 1.0 } ]))

(* A matrix over a kept pattern is the zero matrix [of_row_lists] packs
   from the same rows, shares the pattern arrays and gets its own
   values; malformed patterns are refused. *)
let test_csr_of_pattern () =
  let rows = [| [ (0, 0.0); (2, 0.0) ]; []; [ (1, 0.0) ] |] in
  let packed = Csr.of_row_lists ~cols:3 rows in
  let row_ptr = Csr.row_ptr packed and col_idx = Csr.col_idx packed in
  let a = Csr.of_pattern ~cols:3 ~row_ptr ~col_idx in
  let b = Csr.of_pattern ~cols:3 ~row_ptr ~col_idx in
  Alcotest.(check bool) "packs the zero rows" true (Csr.packs a ~cols:3 rows);
  Alcotest.(check bool) "pattern shared" true
    (Csr.row_ptr a == row_ptr && Csr.col_idx a == col_idx);
  (Csr.values a).(1) <- 4.0;
  check_float "filled in place" 4.0 (Csr.get a 0 2);
  check_float "values not shared" 0.0 (Csr.get b 0 2);
  let refused what ~cols ~row_ptr ~col_idx =
    Alcotest.check_raises what (Invalid_argument ("Csr.of_pattern: " ^ what))
      (fun () -> ignore (Csr.of_pattern ~cols ~row_ptr ~col_idx))
  in
  refused "row pointers do not span the columns" ~cols:3 ~row_ptr:[| 0; 2 |]
    ~col_idx:[| 0 |];
  refused "row pointers do not span the columns" ~cols:3 ~row_ptr:[||]
    ~col_idx:[||];
  refused "row pointers decrease" ~cols:3 ~row_ptr:[| 0; 2; 1; 2 |]
    ~col_idx:[| 0; 1 |];
  refused "column out of range" ~cols:2 ~row_ptr:[| 0; 1 |] ~col_idx:[| 2 |]

(* ---- Sparse_solve ---- *)

let row cells rhs = { Sparse_solve.cells; rhs }

let test_sparse_triangular_chain () =
  (* x0 = 2; x0 + x1 = 5; x1 + x2 = 10 — pure greedy substitution *)
  let rows =
    [
      row [ (0, 1.0) ] 2.0;
      row [ (0, 1.0); (1, 1.0) ] 5.0;
      row [ (1, 1.0); (2, 1.0) ] 10.0;
    ]
  in
  let r = Sparse_solve.solve ~ncols:3 rows in
  Alcotest.(check (array (float 1e-9))) "solution" [| 2.0; 3.0; 7.0 |] r.Sparse_solve.x;
  check_float "residual" 0.0 r.Sparse_solve.residual_l1;
  Alcotest.(check int) "all greedy" 3 r.Sparse_solve.stats.Sparse_solve.greedy_solved

let test_sparse_dense_fallback () =
  (* coupled 2x2 block that greedy cannot split *)
  let rows =
    [ row [ (0, 1.0); (1, 1.0) ] 3.0; row [ (0, 1.0); (1, -1.0) ] 1.0 ]
  in
  let r = Sparse_solve.solve ~ncols:2 rows in
  Alcotest.(check (array (float 1e-9))) "solution" [| 2.0; 1.0 |] r.Sparse_solve.x;
  Alcotest.(check int) "dense solved" 2 r.Sparse_solve.stats.Sparse_solve.dense_solved

let test_sparse_inconsistent_residual () =
  (* no channel produces this term: empty row with nonzero rhs *)
  let rows = [ row [] 4.0; row [ (0, 2.0) ] 6.0 ] in
  let r = Sparse_solve.solve ~ncols:1 rows in
  check_float "x" 3.0 r.Sparse_solve.x.(0);
  check_float "residual from impossible row" 4.0 r.Sparse_solve.residual_l1

let test_sparse_free_variable () =
  let rows = [ row [ (0, 1.0) ] 1.0 ] in
  let r = Sparse_solve.solve ~ncols:3 rows in
  Alcotest.(check int) "free vars" 2 r.Sparse_solve.stats.Sparse_solve.free_vars;
  check_float "free at zero" 0.0 r.Sparse_solve.x.(1)

let test_sparse_conflicting_singletons () =
  (* x0 = 1 and x0 = 3: greedy solves one, the other becomes residual *)
  let rows = [ row [ (0, 1.0) ] 1.0; row [ (0, 1.0) ] 3.0 ] in
  let r = Sparse_solve.solve ~ncols:1 rows in
  check_float "residual" 2.0 r.Sparse_solve.residual_l1

let test_sparse_duplicate_column_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Sparse_solve: duplicate column in row") (fun () ->
      ignore (Sparse_solve.solve ~ncols:2 [ row [ (0, 1.0); (0, 2.0) ] 1.0 ]))

let test_sparse_matches_dense_on_consistent () =
  let rng = Qturbo_util.Rng.create ~seed:123L in
  for _trial = 1 to 10 do
    (* random consistent triangular-ish system *)
    let n = 2 + Qturbo_util.Rng.int rng ~bound:5 in
    let x_true =
      Array.init n (fun _ -> Qturbo_util.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
    in
    let rows =
      List.init n (fun i ->
          let cells = List.init (i + 1) (fun j -> (j, 1.0 +. float_of_int j)) in
          let rhs =
            List.fold_left (fun acc (j, c) -> acc +. (c *. x_true.(j))) 0.0 cells
          in
          row cells rhs)
    in
    let greedy = Sparse_solve.solve ~ncols:n rows in
    let dense = Sparse_solve.dense_only ~ncols:n rows in
    if
      not
        (Qturbo_util.Float_cmp.approx_array ~rtol:1e-6 ~atol:1e-7
           greedy.Sparse_solve.x dense.Sparse_solve.x)
    then Alcotest.fail "greedy and dense disagree"
  done

(* ---- qcheck properties ---- *)

let small_mat_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    list_repeat (n * n) (float_range (-5.0) 5.0) >>= fun xs ->
    return (n, xs))

let prop_lu_solves =
  QCheck.Test.make ~name:"LU solution satisfies the system" ~count:200
    (QCheck.make small_mat_gen) (fun (n, xs) ->
      let a =
        Mat.init ~rows:n ~cols:n (fun i j ->
            List.nth xs ((i * n) + j) +. if i = j then 10.0 else 0.0)
      in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x = Lu.solve a b in
      Qturbo_util.Float_cmp.approx_array ~rtol:1e-6 ~atol:1e-7 (Mat.mul_vec a x) b)

let prop_qr_residual_orthogonal =
  QCheck.Test.make ~name:"QR least-squares residual is gradient-null" ~count:100
    (QCheck.make small_mat_gen) (fun (n, xs) ->
      let rows = n + 2 in
      let a =
        Mat.init ~rows ~cols:n (fun i j ->
            List.nth xs ((i * n + j) mod (n * n)) +. if i mod n = j then 4.0 else 0.0)
      in
      let b = Array.init rows (fun i -> float_of_int i -. 1.5) in
      let x = Qr.least_squares a b in
      (* optimality: A' (Ax - b) = 0 *)
      let r = Vec.sub (Mat.mul_vec a x) b in
      Vec.norm_inf (Mat.mul_vec_t a r) < 1e-5)

let prop_csr_matvec_matches_dense =
  QCheck.Test.make ~name:"CSR matvec equals dense matvec" ~count:200
    (QCheck.make small_mat_gen) (fun (n, xs) ->
      let m =
        Mat.init ~rows:n ~cols:n (fun i j ->
            let v = List.nth xs ((i * n) + j) in
            if Float.abs v < 2.0 then 0.0 else v)
      in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      Qturbo_util.Float_cmp.approx_array ~rtol:1e-9 ~atol:1e-9
        (Csr.mul_vec (Csr.of_dense m) x)
        (Mat.mul_vec m x))

(* ---- the CSR greedy solve against the list solve it replaced ---- *)

(* The list-based greedy solve as it stood before the CSR rewrite, kept
   verbatim as the oracle: validation with a fresh table per row,
   [List.assoc] per settled cell, a [Hashtbl] numbering the dense
   fallback's columns. *)
module List_oracle = struct
  open Sparse_solve

  let validate ~ncols rows =
    List.iter
      (fun { cells; rhs = _ } ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (c, _) ->
            if c < 0 || c >= ncols then
              invalid_arg "Sparse_solve: column out of range";
            if Hashtbl.mem seen c then
              invalid_arg "Sparse_solve: duplicate column in row";
            Hashtbl.add seen c ())
          cells)
      rows

  let pivot_tol = 1e-12

  let solve ~ncols rows =
    validate ~ncols rows;
    let rows = Array.of_list rows in
    let nrows = Array.length rows in
    let x = Array.make ncols 0.0 in
    let solved = Array.make ncols false in
    let rhs = Array.map (fun r -> r.rhs) rows in
    let unsolved = Array.map (fun r -> List.length r.cells) rows in
    let done_row = Array.make nrows false in
    let col_rows = Array.make ncols [] in
    Array.iteri
      (fun i r ->
        List.iter (fun (c, _) -> col_rows.(c) <- i :: col_rows.(c)) r.cells)
      rows;
    let greedy_solved = ref 0 in
    let queue = Queue.create () in
    Array.iteri (fun i n -> if n = 1 then Queue.add i queue) unsolved;
    let remaining_cell i =
      let rec find = function
        | [] -> None
        | (c, a) :: rest -> if solved.(c) then find rest else Some (c, a)
      in
      find rows.(i).cells
    in
    let settle_column c value =
      solved.(c) <- true;
      x.(c) <- value;
      List.iter
        (fun j ->
          if not done_row.(j) then begin
            let coeff = List.assoc c rows.(j).cells in
            rhs.(j) <- rhs.(j) -. (coeff *. value);
            unsolved.(j) <- unsolved.(j) - 1;
            if unsolved.(j) = 1 then Queue.add j queue
            else if unsolved.(j) = 0 then done_row.(j) <- true
          end)
        col_rows.(c)
    in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      if (not done_row.(i)) && unsolved.(i) = 1 then
        match remaining_cell i with
        | None -> done_row.(i) <- true
        | Some (c, a) ->
            if Float.abs a > pivot_tol then begin
              done_row.(i) <- true;
              incr greedy_solved;
              settle_column c (rhs.(i) /. a)
            end
    done;
    let leftover_rows =
      List.filter (fun i -> not done_row.(i)) (List.init nrows Fun.id)
    in
    let leftover_cols = Hashtbl.create 16 in
    let col_order = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun (c, _) ->
            if (not solved.(c)) && not (Hashtbl.mem leftover_cols c) then begin
              Hashtbl.add leftover_cols c (Hashtbl.length leftover_cols);
              col_order := c :: !col_order
            end)
          rows.(i).cells)
      leftover_rows;
    let dense_cols = Array.of_list (List.rev !col_order) in
    let dense_rows_n = List.length leftover_rows in
    let dense_solved = Array.length dense_cols in
    if dense_solved > 0 && dense_rows_n > 0 then begin
      let a = Mat.create ~rows:dense_rows_n ~cols:dense_solved in
      let b = Array.make dense_rows_n 0.0 in
      List.iteri
        (fun ri i ->
          b.(ri) <- rhs.(i);
          List.iter
            (fun (c, coeff) ->
              if not solved.(c) then
                Mat.set a ri (Hashtbl.find leftover_cols c) coeff)
            rows.(i).cells)
        leftover_rows;
      let sol = Qr.least_squares a b in
      Array.iteri (fun k c -> x.(c) <- sol.(k); solved.(c) <- true) dense_cols
    end;
    let free_vars = ref 0 in
    Array.iter (fun s -> if not s then incr free_vars) solved;
    let res =
      Array.fold_left
        (fun acc r ->
          let lhs =
            List.fold_left (fun s (c, a) -> s +. (a *. x.(c))) 0.0 r.cells
          in
          acc +. Float.abs (lhs -. r.rhs))
        0.0 rows
    in
    {
      x;
      residual_l1 = res;
      stats =
        {
          greedy_solved = !greedy_solved;
          dense_solved;
          free_vars = !free_vars;
          dense_rows = dense_rows_n;
        };
    }
end

let bits x = Int64.bits_of_float x

let same_result (a : Sparse_solve.result) (b : Sparse_solve.result) =
  Array.length a.Sparse_solve.x = Array.length b.Sparse_solve.x
  && Array.for_all2 (fun p q -> bits p = bits q) a.Sparse_solve.x b.Sparse_solve.x
  && bits a.Sparse_solve.residual_l1 = bits b.Sparse_solve.residual_l1
  && a.Sparse_solve.stats = b.Sparse_solve.stats

(* Random systems over up to 8 columns: rows name distinct columns in
   any order, coefficients include exact zeros and pivots below the
   greedy pass's 1e-12 tolerance, and half the systems are chains
   (row i couples columns i and i+1) closed by a singleton, some with a
   cycle back to column 0 that only the dense fallback can resolve. *)
let system_gen =
  let open QCheck.Gen in
  let coeff =
    frequency
      [
        (6, float_range (-3.0) 3.0);
        (3, oneofl [ 1.0; -1.0; 2.0; 0.5 ]);
        (1, oneofl [ 0.0; 1e-13; -1e-13 ]);
      ]
  in
  let random_system =
    int_range 1 8 >>= fun ncols ->
    int_range 0 10 >>= fun nrows ->
    let row =
      int_range 0 (Int.min 4 ncols) >>= fun k ->
      shuffle_l (List.init ncols Fun.id) >>= fun cols ->
      list_repeat k coeff >>= fun coeffs ->
      float_range (-5.0) 5.0 >>= fun rhs ->
      return
        {
          Sparse_solve.cells =
            List.combine (List.filteri (fun i _ -> i < k) cols) coeffs;
          rhs;
        }
    in
    list_repeat nrows row >>= fun rows -> return (ncols, rows)
  in
  let chain_system =
    int_range 2 7 >>= fun n ->
    bool >>= fun cycle ->
    list_repeat (2 * n) coeff >>= fun cs ->
    list_repeat (n + 1) (float_range (-5.0) 5.0) >>= fun rhss ->
    let c = Array.of_list cs and r = Array.of_list rhss in
    let links =
      List.init (n - 1) (fun i ->
          {
            Sparse_solve.cells = [ (i, c.(2 * i)); (i + 1, c.((2 * i) + 1)) ];
            rhs = r.(i);
          })
    in
    let closing =
      if cycle then
        { Sparse_solve.cells = [ (n - 1, c.(2 * n - 2)); (0, c.(2 * n - 1)) ]; rhs = r.(n - 1) }
      else { Sparse_solve.cells = [ (n - 1, c.(2 * n - 2)) ]; rhs = r.(n - 1) }
    in
    shuffle_l (closing :: links) >>= fun rows ->
    bool >>= fun spare ->
    (* an unused trailing column and an empty row, sometimes *)
    return
      ( (if spare then n + 1 else n),
        if spare then rows @ [ { Sparse_solve.cells = []; rhs = r.(n) } ] else rows )
  in
  frequency [ (1, random_system); (1, chain_system) ]

let print_system (ncols, rows) =
  Printf.sprintf "ncols=%d rows=[%s]" ncols
    (String.concat "; "
       (List.map
          (fun { Sparse_solve.cells; rhs } ->
            Printf.sprintf "{%s} = %h"
              (String.concat " "
                 (List.map (fun (c, a) -> Printf.sprintf "%d:%h" c a) cells))
              rhs)
          rows))

let prop_csr_solve_matches_list_oracle =
  QCheck.Test.make ~name:"CSR greedy solve == list greedy solve, bitwise"
    ~count:2000
    (QCheck.make ~print:print_system system_gen)
    (fun (ncols, rows) ->
      let expected = List_oracle.solve ~ncols rows in
      let packed =
        Csr.of_row_lists ~cols:ncols
          (Array.of_list (List.map (fun r -> r.Sparse_solve.cells) rows))
      in
      let rhs = Array.of_list (List.map (fun r -> r.Sparse_solve.rhs) rows) in
      same_result expected (Sparse_solve.solve ~ncols rows)
      && same_result expected (Sparse_solve.solve_csr packed ~rhs))

(* the generator reaches every branch the property is meant to cover *)
let test_system_gen_coverage () =
  let rand = Random.State.make [| 2024 |] in
  let seen = Hashtbl.create 8 in
  let note k = Hashtbl.replace seen k () in
  for _ = 1 to 2000 do
    let ncols, rows = system_gen rand in
    let r = List_oracle.solve ~ncols rows in
    let st = r.Sparse_solve.stats in
    if st.Sparse_solve.greedy_solved >= 3 then note "singleton chain";
    if st.Sparse_solve.dense_solved > 0 then note "QR fallback";
    if st.Sparse_solve.free_vars > 0 then note "unused column";
    if List.exists (fun r -> r.Sparse_solve.cells = []) rows then note "empty row";
    if
      List.exists
        (fun r ->
          List.exists
            (fun (_, a) -> a <> 0.0 && Float.abs a <= 1e-12)
            r.Sparse_solve.cells)
        rows
      && st.Sparse_solve.dense_rows > 0
    then note "pivot below tolerance"
  done;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then Alcotest.failf "generator never hit: %s" k)
    [ "singleton chain"; "QR fallback"; "unused column"; "empty row"; "pivot below tolerance" ]

(* ---- CSR normal-equation kernels against the dense ones ---- *)

(* CSR matrices with strictly ascending columns per row, storing
   explicit 0.0 and -0.0 among ordinary values, and a finite vector with
   zero entries for the transposed product. *)
let csr_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [ (6, float_range (-4.0) 4.0); (1, return 0.0); (1, return (-0.0)) ]
  in
  int_range 1 7 >>= fun rows ->
  int_range 1 7 >>= fun cols ->
  let row =
    list_repeat cols (pair bool value) >>= fun picks ->
    return
      (List.concat
         (List.mapi (fun j (keep, v) -> if keep then [ (j, v) ] else []) picks))
  in
  list_repeat rows row >>= fun row_lists ->
  list_repeat rows
    (frequency [ (5, float_range (-3.0) 3.0); (1, oneofl [ 0.0; -0.0 ]) ])
  >>= fun y ->
  return (Csr.of_row_lists ~cols (Array.of_list row_lists), Array.of_list y)

let print_csr (m, y) =
  Printf.sprintf "rows=[%s] y=[%s]"
    (String.concat "; "
       (List.init (Csr.rows m) (fun i ->
            String.concat " "
              (List.map
                 (fun (c, v) -> Printf.sprintf "%d:%h" c v)
                 (Csr.row_entries m i)))))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") y)))

let prop_csr_normal_equations_match_dense =
  QCheck.Test.make ~name:"CSR J^T J and J^T r == dense, bitwise" ~count:1000
    (QCheck.make ~print:print_csr csr_gen)
    (fun (m, y) ->
      let d = Csr.to_dense m in
      let same a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun p q -> bits p = bits q) a b
      in
      same (Mat.data (Csr.at_mul_self m)) (Mat.data (Mat.at_mul_self d))
      && same (Csr.mul_vec_t m y) (Mat.mul_vec_t d y))

let test_csr_at_mul_self_rejects_unsorted_rows () =
  Alcotest.check_raises "descending row"
    (Invalid_argument "Csr.at_mul_self: columns not strictly ascending in a row")
    (fun () ->
      ignore (Csr.at_mul_self (Csr.of_row_lists ~cols:3 [| [ (2, 1.0); (0, 1.0) ] |])))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_ops;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "max abs index" `Quick test_vec_max_abs_index;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "identity mul" `Quick test_mat_identity_mul;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "mul_vec_t" `Quick test_mat_mul_vec_t;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "norms" `Quick test_mat_norm1;
          Alcotest.test_case "ragged rejected" `Quick test_mat_ragged_rejected;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve" `Quick test_lu_solve;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "determinant sign" `Quick test_lu_det_sign;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square" `Quick test_qr_square_solve;
          Alcotest.test_case "overdetermined" `Quick test_qr_overdetermined;
          Alcotest.test_case "inconsistent" `Quick test_qr_inconsistent_least_squares;
          Alcotest.test_case "rank deficient" `Quick test_qr_rank_deficient;
          Alcotest.test_case "underdetermined" `Quick test_qr_underdetermined;
          Alcotest.test_case "random vs LU" `Quick test_qr_random_consistency;
        ] );
      ( "csr",
        [
          Alcotest.test_case "roundtrip" `Quick test_csr_roundtrip;
          Alcotest.test_case "duplicates sum" `Quick test_csr_duplicate_triplets_sum;
          Alcotest.test_case "matvec" `Quick test_csr_mul_vec;
          Alcotest.test_case "norm1" `Quick test_csr_norm1_matches_dense;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "range check" `Quick test_csr_out_of_range;
          Alcotest.test_case "kept pattern" `Quick test_csr_of_pattern;
        ] );
      ( "sparse_solve",
        [
          Alcotest.test_case "triangular chain" `Quick test_sparse_triangular_chain;
          Alcotest.test_case "dense fallback" `Quick test_sparse_dense_fallback;
          Alcotest.test_case "inconsistent residual" `Quick
            test_sparse_inconsistent_residual;
          Alcotest.test_case "free variables" `Quick test_sparse_free_variable;
          Alcotest.test_case "conflicting singletons" `Quick
            test_sparse_conflicting_singletons;
          Alcotest.test_case "duplicate column rejected" `Quick
            test_sparse_duplicate_column_rejected;
          Alcotest.test_case "greedy matches dense" `Quick
            test_sparse_matches_dense_on_consistent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lu_solves; prop_qr_residual_orthogonal; prop_csr_matvec_matches_dense ]
      );
      ( "csr kernels",
        Alcotest.test_case "system generator covers every branch" `Quick
          test_system_gen_coverage
        :: Alcotest.test_case "J^T J rejects unsorted rows" `Quick
             test_csr_at_mul_self_rejects_unsorted_rows
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_csr_solve_matches_list_oracle;
               prop_csr_normal_equations_match_dense;
             ] );
    ]
