open Qturbo_pauli
open Qturbo_aais

type interval = float * float

(* Interval helpers local to this pass.  [Expr.eval_interval] returns
   normalised intervals (lo <= hi, NaN widened away); the combinators
   here only need scalar scaling and addition on such intervals. *)

let norm ((a, b) as i) =
  if Float.is_nan a || Float.is_nan b then (neg_infinity, infinity) else i

let iscale c (a, b) =
  if c = 0.0 then (0.0, 0.0)
  else if c > 0.0 then norm (c *. a, c *. b)
  else norm (c *. b, c *. a)

let iadd (a, b) (c, d) = norm (a +. c, b +. d)

let fmt_interval (a, b) = Printf.sprintf "[%g, %g]" a b

let channel_rates ~(channels : Instruction.channel array) ~variables =
  let bounds =
    Array.map
      (fun (v : Variable.t) -> (v.Variable.bound.lo, v.Variable.bound.hi))
      variables
  in
  let memo = Array.make (Array.length channels) None in
  fun cid ->
    match memo.(cid) with
    | Some i -> i
    | None ->
        (* the template over its ids' bounds: the same interval
           operations on the same endpoints as the instance *)
        let c = channels.(cid) in
        let i =
          Expr.eval_interval
            (Expr.template_expr c.template)
            ~bounds:(Array.map (fun v -> bounds.(v)) c.ids)
        in
        memo.(cid) <- Some i;
        i

(* from the row's last entry to its first *)
let row_rate ~rate matrix row =
  let module Csr = Qturbo_linalg.Csr in
  let row_ptr = Csr.row_ptr matrix
  and col_idx = Csr.col_idx matrix
  and values = Csr.values matrix in
  if row_ptr.(row) = row_ptr.(row + 1) then None
  else begin
    let acc = ref (0.0, 0.0) in
    for k = row_ptr.(row + 1) - 1 downto row_ptr.(row) do
      acc := iadd !acc (iscale values.(k) (rate col_idx.(k)))
    done;
    Some !acc
  end

let judge ?t_max ~t_tar s coeff ((lo, hi) as rate) =
  let sign_ok = if coeff > 0.0 then hi > 0.0 else lo < 0.0 in
  if not sign_ok then
    Some
      (Diagnostic.make ~code:"QT002" ~severity:Diagnostic.Error
         ~subject:(Diagnostic.Term s)
         ~hint:
           "the channel expressions cannot reach this sign within the \
            declared variable bounds; flip the target coefficient's sign \
            via a basis change or pick a device with a wider amplitude \
            range"
         (Printf.sprintf
            "coefficient %g requires a %s rate, but the achievable rate \
             interval is %s"
            coeff
            (if coeff > 0.0 then "positive" else "negative")
            (fmt_interval rate)))
  else
    match t_max with
    | Some tm when tm > 0.0 && Float.is_finite tm ->
        let need = coeff *. t_tar in
        let best = if coeff > 0.0 then hi *. tm else lo *. tm in
        let short =
          Float.is_finite best
          && if coeff > 0.0 then need > best else need < best
        in
        if short then
          Some
            (Diagnostic.make ~code:"QT003" ~severity:Diagnostic.Warning
               ~subject:(Diagnostic.Term s)
               ~hint:
                 "reduce the target time, rescale the Hamiltonian, or split \
                  the evolution into repeated segments"
               (Printf.sprintf
                  "needs integral %g over t_tar = %g, but the rate interval \
                   %s caps the achievable integral at %g within the \
                   device's max evolution time %g"
                  need t_tar (fmt_interval rate) best tm))
        else None
    | _ -> None

module Ps_tbl = Hashtbl.Make (Pauli_string)

(* Collecting the channels of the target's terms only keeps the scan
   linear in the channel effect lists even when the AAIS produces O(N²)
   terms the target never mentions.  Identity effects can never be in
   the table, so the raw effect lists need no filtering. *)
let scan ~(channels : Instruction.channel array) ~variables ~target =
  let feeds = Ps_tbl.create 64 in
  List.iter
    (fun (s, _) -> Ps_tbl.replace feeds s [])
    (Pauli_sum.terms (Pauli_sum.drop_identity target));
  Array.iter
    (fun (c : Instruction.channel) ->
      List.iter
        (fun (e : Instruction.effect) ->
          match Ps_tbl.find_opt feeds e.pstring with
          | Some l -> Ps_tbl.replace feeds e.pstring ((c.cid, e.coeff) :: l)
          | None -> ())
        c.effects)
    channels;
  let rate = channel_rates ~channels ~variables in
  let cols = Array.length channels in
  fun s ->
    let row = List.rev (Ps_tbl.find feeds s) in
    row_rate ~rate (Qturbo_linalg.Csr.of_row_lists ~cols [| row |]) 0
