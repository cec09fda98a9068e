type bound = { lo : float; hi : float }

let unbounded = { lo = neg_infinity; hi = infinity }

let make ~lo ~hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Bounds.make: NaN bound";
  if lo > hi then invalid_arg "Bounds.make: lo > hi";
  { lo; hi }

let contains { lo; hi } x = x >= lo && x <= hi

let clamp { lo; hi } x = if x < lo then lo else if x > hi then hi else x

type transform = bound array

let transform bounds = bounds

(* MINUIT-style transformations.  Two-sided: x = lo + (hi-lo)(sin u + 1)/2.
   One-sided lower: x = lo - 1 + sqrt(u² + 1).  One-sided upper mirrors. *)

let to_internal_1 b x =
  let x = clamp b x in
  match (Float.is_finite b.lo, Float.is_finite b.hi) with
  | false, false -> x
  | true, true ->
      if b.hi = b.lo then 0.0
      else
        let y = (2.0 *. (x -. b.lo) /. (b.hi -. b.lo)) -. 1.0 in
        asin (Qturbo_util.Float_cmp.clamp ~lo:(-1.0) ~hi:1.0 y)
  | true, false ->
      let y = x -. b.lo +. 1.0 in
      (* invert x = lo - 1 + sqrt(u²+1): u = sqrt(y² - 1) with y >= 1 *)
      sqrt (Float.max 0.0 ((y *. y) -. 1.0))
  | false, true ->
      let y = b.hi -. x +. 1.0 in
      -.sqrt (Float.max 0.0 ((y *. y) -. 1.0))

let of_internal_1 b u =
  match (Float.is_finite b.lo, Float.is_finite b.hi) with
  | false, false -> u
  | true, true -> b.lo +. ((b.hi -. b.lo) *. (sin u +. 1.0) /. 2.0)
  | true, false -> b.lo -. 1.0 +. sqrt ((u *. u) +. 1.0)
  | false, true -> b.hi +. 1.0 -. sqrt ((u *. u) +. 1.0)

let check_dim t x =
  if Array.length t <> Array.length x then
    invalid_arg "Bounds: dimension mismatch"

let to_internal t x =
  check_dim t x;
  Array.mapi (fun i xi -> to_internal_1 t.(i) xi) x

let of_internal t u =
  check_dim t u;
  Array.mapi (fun i ui -> of_internal_1 t.(i) ui) u

let wrap_residual t f u = f (of_internal t u)
