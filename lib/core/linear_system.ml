open Qturbo_pauli
open Qturbo_aais
open Qturbo_linalg

type t = { index : Term_index.t; b_tar : float array; csr : Csr.t }
type skeleton = { sk_index : Term_index.t; sk_csr : Csr.t }

(* [f row cid coeff] for every non-identity effect, in channel order *)
let iter_effects ~index ~channels f =
  Array.iter
    (fun (c : Instruction.channel) ->
      List.iter
        (fun (e : Instruction.effect) ->
          if not (Pauli_string.is_identity e.pstring) then
            match Term_index.row_of index e.pstring with
            | Some row -> f row c.Instruction.cid e.coeff
            | None -> ())
        c.effects)
    channels

(* Two passes over the effects: count each row's entries, then fill
   them through a per-row cursor, so a row's entries land in channel
   order. *)
let skeleton ~channels ~support =
  let index = Term_index.build_of_support ~channels ~support in
  let n_rows = Term_index.count index in
  let row_ptr = Array.make (n_rows + 1) 0 in
  iter_effects ~index ~channels (fun row _ _ ->
      row_ptr.(row + 1) <- row_ptr.(row + 1) + 1);
  for i = 1 to n_rows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let col_idx = Array.make row_ptr.(n_rows) 0
  and values = Array.make row_ptr.(n_rows) 0.0
  and cursor = Array.sub row_ptr 0 n_rows in
  iter_effects ~index ~channels (fun row cid coeff ->
      let k = cursor.(row) in
      col_idx.(k) <- cid;
      values.(k) <- coeff;
      cursor.(row) <- k + 1);
  let csr =
    Csr.of_arrays ~cols:(Array.length channels) ~row_ptr ~col_idx ~values
  in
  (* the greedy solve trusts this and does not re-check it per call *)
  (match Csr.repeated_col csr with
  | Some (row, cid) ->
      invalid_arg
        (Printf.sprintf "Linear_system.skeleton: row %d names channel %d twice"
           row cid)
  | None -> ());
  { sk_index = index; sk_csr = csr }

(* One pass over [skeleton]'s own order: rows are numbered by first
   occurrence, the support's terms and then the channels' effect terms,
   so each term must name a row already numbered or the next one, and
   the row's string must be the term (which makes the lookup table
   return each row's own number).  Each effect takes the entry under
   its row's cursor, which must be the channel and the coefficient bit
   for bit, and every row's cursor must end at the row's end.  A
   structurally damaged CSR (an unmarshaled one) may index out of
   bounds; that is a mismatch too. *)
let built_from ~channels ~support sk =
  let index = sk.sk_index and m = sk.sk_csr in
  let n_rows = Term_index.count index in
  let row_ptr = Csr.row_ptr m
  and col_idx = Csr.col_idx m
  and values = Csr.values m in
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
  Csr.rows m = n_rows
  && Csr.cols m = Array.length channels
  && Array.length row_ptr = n_rows + 1
  && Array.length values = Array.length col_idx
  && row_ptr.(0) = 0
  && row_ptr.(n_rows) = Array.length col_idx
  &&
  let cursor = Array.sub row_ptr 0 n_rows in
  let effect (c : Instruction.channel) (s, coeff) =
    let r = row s in
    let k = cursor.(r) in
    if
      k < row_ptr.(r + 1)
      && col_idx.(k) = c.Instruction.cid
      && Int64.equal
           (Int64.bits_of_float values.(k))
           (Int64.bits_of_float coeff)
    then cursor.(r) <- k + 1
    else raise_notrace Exit
  in
  match
    List.iter
      (fun s -> if not (Pauli_string.is_identity s) then ignore (row s))
      support;
    Array.iter
      (fun c -> List.iter (effect c) (Instruction.effect_terms c))
      channels
  with
  | exception (Exit | Invalid_argument _) -> false
  | () ->
      !next = n_rows
      && Array.for_all2 ( = ) cursor (Array.sub row_ptr 1 n_rows)

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
  { index = sk.sk_index; b_tar; csr = sk.sk_csr }

let skeleton_index sk = sk.sk_index
let skeleton_csr sk = sk.sk_csr
let csr t = t.csr

let build ~channels ~target ~t_tar =
  let support = List.map fst (Pauli_sum.terms target) in
  instantiate (skeleton ~channels ~support) ~target ~t_tar

let solve t = Sparse_solve.solve_csr t.csr ~rhs:t.b_tar
let solve_dense t = Sparse_solve.dense_csr t.csr ~rhs:t.b_tar

(* Each row's stored entries accumulate in order, so every float sums
   in channel order. *)
let b_of_alpha t ~alpha =
  if Array.length alpha <> Csr.cols t.csr then
    invalid_arg "Linear_system.b_of_alpha: dimension mismatch";
  let row_ptr = Csr.row_ptr t.csr
  and col_idx = Csr.col_idx t.csr
  and values = Csr.values t.csr in
  Array.init (Csr.rows t.csr) (fun i ->
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
