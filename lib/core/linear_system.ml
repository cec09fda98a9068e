open Qturbo_pauli
open Qturbo_aais
open Qturbo_linalg

type t = {
  index : Term_index.t;
  cells : (int * float) list array;
  b_tar : float array;
  n_channels : int;
  csr : Csr.t;
}

type skeleton = {
  sk_index : Term_index.t;
  sk_cells : (int * float) list array;
  sk_n_channels : int;
  sk_csr : Csr.t;
}

let skeleton ~channels ~support =
  let index = Term_index.build_of_support ~channels ~support in
  let n_rows = Term_index.count index in
  let cells = Array.make n_rows [] in
  Array.iter
    (fun (c : Instruction.channel) ->
      List.iter
        (fun (s, coeff) ->
          match Term_index.row_of index s with
          | Some row -> cells.(row) <- (c.Instruction.cid, coeff) :: cells.(row)
          | None -> ())
        (Instruction.effect_terms c))
    channels;
  (* restore channel order within each row *)
  Array.iteri (fun i row -> cells.(i) <- List.rev row) cells;
  let csr = Csr.of_row_lists ~cols:(Array.length channels) cells in
  (* the greedy solve trusts this and does not re-check it per call *)
  (match Csr.repeated_col csr with
  | Some (row, cid) ->
      invalid_arg
        (Printf.sprintf "Linear_system.skeleton: row %d names channel %d twice"
           row cid)
  | None -> ());
  {
    sk_index = index;
    sk_cells = cells;
    sk_n_channels = Array.length channels;
    sk_csr = csr;
  }

(* One pass over [skeleton]'s own order: rows are numbered by first
   occurrence, the support's terms and then the channels' effect terms,
   so each term must name a row already numbered or the next one, and
   the row's string must be the term (which makes the lookup table
   return each row's own number).  Each effect consumes the head of its
   row's cells, which must be the channel and the coefficient bit for
   bit; the CSR's agreement with the cells is the lint gate's QT024. *)
let built_from ~channels ~support sk =
  let index = sk.sk_index in
  let n_rows = Term_index.count index in
  let pending = Array.copy sk.sk_cells in
  let next = ref 0 in
  let row s =
    match Term_index.row_of index s with
    | Some r
      when r <= !next && r < n_rows
           && Pauli_string.equal (Term_index.string_of index r) s ->
        if r = !next then incr next;
        r
    | _ -> raise_notrace Exit
  in
  let effect (c : Instruction.channel) (s, coeff) =
    let r = row s in
    match pending.(r) with
    | (cid, v) :: rest
      when cid = c.Instruction.cid
           && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float coeff)
      ->
        pending.(r) <- rest
    | _ -> raise_notrace Exit
  in
  sk.sk_n_channels = Array.length channels
  && Array.length pending = n_rows
  &&
  match
    List.iter
      (fun s -> if not (Pauli_string.is_identity s) then ignore (row s))
      support;
    Array.iter
      (fun c -> List.iter (effect c) (Instruction.effect_terms c))
      channels
  with
  | exception Exit -> false
  | () -> !next = n_rows && Array.for_all List.is_empty pending

(* Filled from the target's terms, so the cost follows the target: a
   row the target does not name keeps [0.0 *. t_tar], the bits a zero
   coefficient gives ([-0.0] for a negative [t_tar], NaN for an
   infinite one). *)
let instantiate sk ~target ~t_tar =
  let b_tar = Array.make (Term_index.count sk.sk_index) (0.0 *. t_tar) in
  List.iter
    (fun (s, c) ->
      match Term_index.row_of sk.sk_index s with
      | Some row -> b_tar.(row) <- c *. t_tar
      | None -> ())
    (Pauli_sum.terms target);
  {
    index = sk.sk_index;
    cells = sk.sk_cells;
    b_tar;
    n_channels = sk.sk_n_channels;
    csr = sk.sk_csr;
  }

let skeleton_index sk = sk.sk_index
let skeleton_cells sk = sk.sk_cells
let skeleton_csr sk = sk.sk_csr
let csr t = t.csr

let build ~channels ~target ~t_tar =
  let support = List.map fst (Pauli_sum.terms target) in
  instantiate (skeleton ~channels ~support) ~target ~t_tar

let rows t =
  Array.to_list
    (Array.mapi
       (fun i cells -> { Sparse_solve.cells; rhs = t.b_tar.(i) })
       t.cells)

let solve t = Sparse_solve.solve_csr t.csr ~rhs:t.b_tar
let solve_dense t = Sparse_solve.dense_only ~ncols:t.n_channels (rows t)

(* The numeric kernels below run once per sweep instance (not once per
   skeleton), so they iterate the CSR's flat arrays instead of chasing
   the per-row cons lists.  Stored entry order is identical to the list
   order ([Csr.of_row_lists] packs verbatim), so every float accumulates
   in the same sequence and the results are bitwise-unchanged. *)

let b_of_alpha t ~alpha =
  if Array.length alpha <> t.n_channels then
    invalid_arg "Linear_system.b_of_alpha: dimension mismatch";
  let row_ptr = Csr.row_ptr t.csr
  and col_idx = Csr.col_idx t.csr
  and values = Csr.values t.csr in
  Array.init (Array.length t.cells) (fun i ->
      let acc = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        acc := !acc +. (values.(k) *. alpha.(col_idx.(k)))
      done;
      !acc)

let residual_l1 t ~alpha =
  let b = b_of_alpha t ~alpha in
  let acc = ref 0.0 in
  Array.iteri (fun i bi -> acc := !acc +. Float.abs (bi -. t.b_tar.(i))) b;
  !acc

let norm1 t = Csr.norm1 t.csr
