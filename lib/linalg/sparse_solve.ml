type row = { cells : (int * float) list; rhs : float }

type stats = {
  greedy_solved : int;
  dense_solved : int;
  free_vars : int;
  dense_rows : int;
}

type result = { x : Vec.t; residual_l1 : float; stats : stats }

(* Row lists packed verbatim, rejecting out-of-range columns and rows
   that name a column twice. *)
let pack ~ncols rows =
  let a =
    try
      Csr.of_row_lists ~cols:ncols
        (Array.of_list (List.map (fun r -> r.cells) rows))
    with Invalid_argument _ -> invalid_arg "Sparse_solve: column out of range"
  in
  if Csr.repeated_col a <> None then
    invalid_arg "Sparse_solve: duplicate column in row";
  a

let rhs_of rows = Array.of_list (List.map (fun r -> r.rhs) rows)

(* ‖A x − rhs‖₁, each row's stored entries accumulated in order *)
let csr_residual_l1 a ~rhs x =
  let row_ptr = Csr.row_ptr a
  and col_idx = Csr.col_idx a
  and values = Csr.values a in
  let res = ref 0.0 in
  for i = 0 to Csr.rows a - 1 do
    let lhs = ref 0.0 in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      lhs := !lhs +. (values.(k) *. x.(col_idx.(k)))
    done;
    res := !res +. Float.abs (!lhs -. rhs.(i))
  done;
  !res

let residual_l1 ~ncols rows x =
  csr_residual_l1 (pack ~ncols rows) ~rhs:(rhs_of rows) x

(* Tiny coefficients cannot be used as pivots in the greedy pass: dividing
   by them would blow up rounding errors from earlier substitutions. *)
let pivot_tol = 1e-12

(* The greedy pass over a CSR matrix.  Floats are combined in a fixed
   order that reproduces the row-list solver this replaced bit for bit
   (the test suite keeps it as the oracle): singleton rows are queued in
   ascending row order, each solved column updates its rows in
   descending row order, and the residual accumulates each row's stored
   entries in order.  Rows must name each column at most once; callers
   check that where their matrices are built. *)
let solve_csr a ~rhs =
  let nrows = Csr.rows a and ncols = Csr.cols a in
  if Array.length rhs <> nrows then
    invalid_arg "Sparse_solve.solve_csr: rhs length differs from the row count";
  let row_ptr = Csr.row_ptr a
  and col_idx = Csr.col_idx a
  and values = Csr.values a in
  let x = Array.make ncols 0.0 in
  let solved = Array.make ncols false in
  (* live state per row: remaining rhs and count of unsolved unknowns *)
  let live_rhs = Array.copy rhs in
  let unsolved = Array.init nrows (fun i -> row_ptr.(i + 1) - row_ptr.(i)) in
  let done_row = Array.make nrows false in
  (* column -> (row, stored position) in descending row order *)
  let col_ptr = Array.make (ncols + 1) 0 in
  Array.iter (fun c -> col_ptr.(c + 1) <- col_ptr.(c + 1) + 1) col_idx;
  for c = 0 to ncols - 1 do
    col_ptr.(c + 1) <- col_ptr.(c + 1) + col_ptr.(c)
  done;
  let next = Array.sub col_ptr 0 ncols in
  let col_row = Array.make (Array.length col_idx) 0 in
  let col_pos = Array.make (Array.length col_idx) 0 in
  for i = nrows - 1 downto 0 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let c = col_idx.(k) in
      col_row.(next.(c)) <- i;
      col_pos.(next.(c)) <- k;
      next.(c) <- next.(c) + 1
    done
  done;
  let greedy_solved = ref 0 in
  (* FIFO of candidate singleton rows; a row is queued at most once
     (initially, or when its unsolved count drops to one) *)
  let queue = Array.make nrows 0 in
  let head = ref 0 and tail = ref 0 in
  let push i =
    queue.(!tail) <- i;
    incr tail
  in
  Array.iteri (fun i n -> if n = 1 then push i) unsolved;
  (* stored position of row i's first unsolved cell, or -1 *)
  let remaining_cell i =
    let rec find k =
      if k >= row_ptr.(i + 1) then -1
      else if solved.(col_idx.(k)) then find (k + 1)
      else k
    in
    find row_ptr.(i)
  in
  let settle_column c value =
    solved.(c) <- true;
    x.(c) <- value;
    for e = col_ptr.(c) to col_ptr.(c + 1) - 1 do
      let j = col_row.(e) in
      if not done_row.(j) then begin
        live_rhs.(j) <- live_rhs.(j) -. (values.(col_pos.(e)) *. value);
        unsolved.(j) <- unsolved.(j) - 1;
        if unsolved.(j) = 1 then push j
        else if unsolved.(j) = 0 then done_row.(j) <- true
      end
    done
  in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    if (not done_row.(i)) && unsolved.(i) = 1 then begin
      let k = remaining_cell i in
      if k < 0 then done_row.(i) <- true
      else
        let a = values.(k) in
        if Float.abs a > pivot_tol then begin
          done_row.(i) <- true;
          incr greedy_solved;
          settle_column col_idx.(k) (live_rhs.(i) /. a)
        end
        (* else: leave for the dense fallback *)
    end
  done;
  (* dense fallback over leftover rows/columns, columns numbered in
     order of first appearance *)
  let leftover_rows =
    List.filter (fun i -> not done_row.(i)) (List.init nrows Fun.id)
  in
  let dense_slot = Array.make ncols (-1) in
  let col_order = ref [] in
  let dense_solved = ref 0 in
  List.iter
    (fun i ->
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let c = col_idx.(k) in
        if (not solved.(c)) && dense_slot.(c) < 0 then begin
          dense_slot.(c) <- !dense_solved;
          incr dense_solved;
          col_order := c :: !col_order
        end
      done)
    leftover_rows;
  let dense_cols = Array.of_list (List.rev !col_order) in
  let dense_rows_n = List.length leftover_rows in
  let dense_solved = !dense_solved in
  if dense_solved > 0 && dense_rows_n > 0 then begin
    let m = Mat.create ~rows:dense_rows_n ~cols:dense_solved in
    let b = Array.make dense_rows_n 0.0 in
    List.iteri
      (fun ri i ->
        b.(ri) <- live_rhs.(i);
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let c = col_idx.(k) in
          if not solved.(c) then Mat.set m ri dense_slot.(c) values.(k)
        done)
      leftover_rows;
    let sol = Qr.least_squares m b in
    Array.iteri (fun k c -> x.(c) <- sol.(k); solved.(c) <- true) dense_cols
  end;
  let free_vars = ref 0 in
  Array.iter (fun s -> if not s then incr free_vars) solved;
  {
    x;
    residual_l1 = csr_residual_l1 a ~rhs x;
    stats =
      {
        greedy_solved = !greedy_solved;
        dense_solved;
        free_vars = !free_vars;
        dense_rows = dense_rows_n;
      };
  }

let solve ~ncols rows = solve_csr (pack ~ncols rows) ~rhs:(rhs_of rows)

let dense_only ~ncols rows =
  let a = pack ~ncols rows in
  let nrows = Csr.rows a in
  if nrows = 0 then
    {
      x = Array.make ncols 0.0;
      residual_l1 = 0.0;
      stats =
        { greedy_solved = 0; dense_solved = 0; free_vars = ncols; dense_rows = 0 };
    }
  else begin
    let rhs = rhs_of rows in
    let x = Qr.least_squares (Csr.to_dense a) rhs in
    {
      x;
      residual_l1 = csr_residual_l1 a ~rhs x;
      stats =
        {
          greedy_solved = 0;
          dense_solved = ncols;
          free_vars = 0;
          dense_rows = nrows;
        };
    }
  end
