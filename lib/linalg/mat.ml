type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_rows rs =
  let nrows = Array.length rs in
  if nrows = 0 then invalid_arg "Mat.of_rows: empty";
  let ncols = Array.length rs.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> ncols then invalid_arg "Mat.of_rows: ragged rows")
    rs;
  init ~rows:nrows ~cols:ncols (fun i j -> rs.(i).(j))

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)
let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: out of bounds";
  m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }
let row m i = Array.init m.cols (fun j -> m.data.((i * m.cols) + j))
let col m j = Array.init m.rows (fun i -> m.data.((i * m.cols) + j))
let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let data m = m.data

(* AᵀA without materialising the transpose, for the numeric (dense)
   Jacobians.  Zero entries are skipped, so each row contributes only
   nnz² products; entries accumulate over rows in ascending order,
   making the result independent of call context.  [Csr.at_mul_self]
   reproduces this accumulation bit for bit from a CSR matrix. *)
let at_mul_self a =
  let n = a.cols in
  let c = create ~rows:n ~cols:n in
  let cd = c.data and ad = a.data in
  let idx = Array.make n 0 and v = Array.make n 0.0 in
  for r = 0 to a.rows - 1 do
    let base = r * n in
    let nnz = ref 0 in
    for j = 0 to n - 1 do
      let x = Array.unsafe_get ad (base + j) in
      if x <> 0.0 then begin
        Array.unsafe_set idx !nnz j;
        Array.unsafe_set v !nnz x;
        incr nnz
      end
    done;
    for p = 0 to !nnz - 1 do
      let jp = Array.unsafe_get idx p and vp = Array.unsafe_get v p in
      let row = jp * n in
      for q = p to !nnz - 1 do
        let jq = Array.unsafe_get idx q in
        let cell = row + jq in
        Array.unsafe_set cd cell
          (Array.unsafe_get cd cell +. (vp *. Array.unsafe_get v q))
      done
    done
  done;
  (* mirror the strict upper triangle *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      cd.((j * n) + i) <- cd.((i * n) + j)
    done
  done;
  c

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.cols - 1 do
        s := !s +. (a.data.((i * a.cols) + j) *. x.(j))
      done;
      !s)

let mul_vec_t a y =
  if a.rows <> Array.length y then
    invalid_arg "Mat.mul_vec_t: dimension mismatch";
  let r = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let yi = y.(i) in
    if yi <> 0.0 then
      for j = 0 to a.cols - 1 do
        r.(j) <- r.(j) +. (a.data.((i * a.cols) + j) *. yi)
      done
  done;
  r

let elementwise name f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch");
  { a with data = Array.init (Array.length a.data) (fun i -> f a.data.(i) b.data.(i)) }

let add a b = elementwise "Mat.add" ( +. ) a b
let sub a b = elementwise "Mat.sub" ( -. ) a b
let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let norm1 m =
  let best = ref 0.0 in
  for j = 0 to m.cols - 1 do
    let s = ref 0.0 in
    for i = 0 to m.rows - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !s
  done;
  !best

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !s
  done;
  !best

let frobenius m =
  sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 m.data)

let equal ?rtol ?atol a b =
  a.rows = b.rows && a.cols = b.cols
  && Qturbo_util.Float_cmp.approx_array ?rtol ?atol a.data b.data

let pp ppf m =
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.5g" (get m i j)
    done;
    Format.fprintf ppf "]@."
  done
