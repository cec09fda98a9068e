type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows + 1 *)
  col_idx : int array;
  values : float array;
}

type triplet = { row : int; col : int; value : float }

let of_triplets ~rows ~cols entries =
  List.iter
    (fun { row; col; value = _ } ->
      if row < 0 || row >= rows || col < 0 || col >= cols then
        invalid_arg "Csr.of_triplets: entry out of range")
    entries;
  (* bucket by row, then sort by column and merge duplicates *)
  let buckets = Array.make rows [] in
  List.iter
    (fun { row; col; value } ->
      if value <> 0.0 then buckets.(row) <- (col, value) :: buckets.(row))
    entries;
  let row_ptr = Array.make (rows + 1) 0 in
  let merged =
    Array.map
      (fun entries ->
        let sorted =
          List.sort (fun (c1, _) (c2, _) -> Int.compare c1 c2) entries
        in
        let rec merge = function
          | [] -> []
          | [ e ] -> [ e ]
          | (c1, v1) :: (c2, v2) :: rest when c1 = c2 ->
              merge ((c1, v1 +. v2) :: rest)
          | e :: rest -> e :: merge rest
        in
        List.filter (fun (_, v) -> v <> 0.0) (merge sorted))
      buckets
  in
  let nnz = Array.fold_left (fun acc l -> acc + List.length l) 0 merged in
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  let pos = ref 0 in
  Array.iteri
    (fun i entries ->
      row_ptr.(i) <- !pos;
      List.iter
        (fun (c, v) ->
          col_idx.(!pos) <- c;
          values.(!pos) <- v;
          incr pos)
        entries)
    merged;
  row_ptr.(rows) <- !pos;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let of_row_lists ~cols row_lists =
  let nrows = Array.length row_lists in
  let row_ptr = Array.make (nrows + 1) 0 in
  let nnz = ref 0 in
  Array.iteri
    (fun i cells ->
      row_ptr.(i) <- !nnz;
      List.iter
        (fun (c, _) ->
          if c < 0 || c >= cols then
            invalid_arg "Csr.of_row_lists: column out of range";
          incr nnz)
        cells)
    row_lists;
  row_ptr.(nrows) <- !nnz;
  let col_idx = Array.make !nnz 0 in
  let values = Array.make !nnz 0.0 in
  let pos = ref 0 in
  Array.iter
    (fun cells ->
      List.iter
        (fun (c, v) ->
          col_idx.(!pos) <- c;
          values.(!pos) <- v;
          incr pos)
        cells)
    row_lists;
  { nrows; ncols = cols; row_ptr; col_idx; values }

(* The row count of a valid pattern; [who] names the constructor in
   the refusals. *)
let pattern_rows who ~cols ~row_ptr ~col_idx =
  let nrows = Array.length row_ptr - 1 and nnz = Array.length col_idx in
  if nrows < 0 || row_ptr.(0) <> 0 || row_ptr.(nrows) <> nnz then
    invalid_arg (who ^ ": row pointers do not span the columns");
  for i = 0 to nrows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then
      invalid_arg (who ^ ": row pointers decrease")
  done;
  Array.iter
    (fun c ->
      if c < 0 || c >= cols then invalid_arg (who ^ ": column out of range"))
    col_idx;
  nrows

let of_pattern ~cols ~row_ptr ~col_idx =
  let nrows = pattern_rows "Csr.of_pattern" ~cols ~row_ptr ~col_idx in
  let values = Array.make (Array.length col_idx) 0.0 in
  { nrows; ncols = cols; row_ptr; col_idx; values }

let of_arrays ~cols ~row_ptr ~col_idx ~values =
  let nrows = pattern_rows "Csr.of_arrays" ~cols ~row_ptr ~col_idx in
  if Array.length values <> Array.length col_idx then
    invalid_arg "Csr.of_arrays: one value per column index";
  { nrows; ncols = cols; row_ptr; col_idx; values }

let rows t = t.nrows
let cols t = t.ncols
let nnz t = Array.length t.values
let row_ptr t = t.row_ptr
let col_idx t = t.col_idx
let values t = t.values

let col_sq_sums t =
  let sums = Array.make t.ncols 0.0 in
  Array.iteri
    (fun k j -> sums.(j) <- sums.(j) +. (t.values.(k) *. t.values.(k)))
    t.col_idx;
  sums

(* AᵀA without the dense detour, bitwise equal to [Mat.at_mul_self] on
   [to_dense t]: the upper triangle accumulates row by row over
   ascending columns with exact zeros skipped, then is mirrored.  The
   ascending order is what makes each row's products land in the same
   cells in the same sequence, so it is checked as the row is walked. *)
let at_mul_self t =
  let n = t.ncols in
  let c = Mat.create ~rows:n ~cols:n in
  let cd = Mat.data c in
  for r = 0 to t.nrows - 1 do
    let lo = t.row_ptr.(r) and hi = t.row_ptr.(r + 1) - 1 in
    for p = lo to hi do
      if p > lo && t.col_idx.(p) <= t.col_idx.(p - 1) then
        invalid_arg "Csr.at_mul_self: columns not strictly ascending in a row";
      let vp = t.values.(p) in
      if vp <> 0.0 then begin
        let row = t.col_idx.(p) * n in
        for q = p to hi do
          let vq = t.values.(q) in
          if vq <> 0.0 then begin
            let cell = row + t.col_idx.(q) in
            cd.(cell) <- cd.(cell) +. (vp *. vq)
          end
        done
      end
    done
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      cd.((j * n) + i) <- cd.((i * n) + j)
    done
  done;
  c

let filter_cols keep t =
  let row_ptr = Array.make (t.nrows + 1) 0 in
  let kept = Array.map keep t.col_idx in
  let nnz = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 kept in
  let col_idx = Array.make nnz 0 and values = Array.make nnz 0.0 in
  let pos = ref 0 in
  for i = 0 to t.nrows - 1 do
    row_ptr.(i) <- !pos;
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if kept.(k) then begin
        col_idx.(!pos) <- t.col_idx.(k);
        values.(!pos) <- t.values.(k);
        incr pos
      end
    done
  done;
  row_ptr.(t.nrows) <- !pos;
  { t with row_ptr; col_idx; values }

let repeated_col t =
  let last_row = Array.make t.ncols (-1) in
  let rec scan i k =
    if i >= t.nrows then None
    else if k >= t.row_ptr.(i + 1) then scan (i + 1) k
    else
      let c = t.col_idx.(k) in
      if last_row.(c) = i then Some (i, c)
      else begin
        last_row.(c) <- i;
        scan i (k + 1)
      end
  in
  scan 0 (if t.nrows = 0 then 0 else t.row_ptr.(0))

let get t i j =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg "Csr.get: out of bounds";
  let result = ref 0.0 in
  (try
     for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
       if t.col_idx.(k) = j then begin
         result := t.values.(k);
         raise Exit
       end
     done
   with Exit -> ());
  !result

let row_entries t i =
  if i < 0 || i >= t.nrows then invalid_arg "Csr.row_entries: out of bounds";
  let acc = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    acc := (t.col_idx.(k), t.values.(k)) :: !acc
  done;
  !acc

let mul_vec t x =
  if Array.length x <> t.ncols then invalid_arg "Csr.mul_vec: dimension mismatch";
  Array.init t.nrows (fun i ->
      let s = ref 0.0 in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      !s)

let mul_vec_t t y =
  if Array.length y <> t.nrows then
    invalid_arg "Csr.mul_vec_t: dimension mismatch";
  let r = Array.make t.ncols 0.0 in
  for i = 0 to t.nrows - 1 do
    let yi = y.(i) in
    if yi <> 0.0 then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        r.(j) <- r.(j) +. (t.values.(k) *. yi)
      done
  done;
  r

let to_dense t =
  let m = Mat.create ~rows:t.nrows ~cols:t.ncols in
  for i = 0 to t.nrows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let of_dense ?(tol = 0.0) m =
  let entries = ref [] in
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      let v = Mat.get m i j in
      if Float.abs v > tol then entries := { row = i; col = j; value = v } :: !entries
    done
  done;
  of_triplets ~rows:(Mat.rows m) ~cols:(Mat.cols m) !entries

let norm1 t =
  let col_sums = Array.make t.ncols 0.0 in
  Array.iteri
    (fun k j -> col_sums.(j) <- col_sums.(j) +. Float.abs t.values.(k))
    t.col_idx;
  Array.fold_left Float.max 0.0 col_sums

let transpose t =
  let entries = ref [] in
  for i = 0 to t.nrows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      entries := { row = t.col_idx.(k); col = i; value = t.values.(k) } :: !entries
    done
  done;
  of_triplets ~rows:t.ncols ~cols:t.nrows !entries
