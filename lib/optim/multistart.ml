open Qturbo_util

type run = { report : Objective.report; start_index : int }

(* the best run under the deterministic (cost, start_index) order:
   strictly smaller finite cost wins, ties keep the earlier start *)
let better_than best (report : Objective.report) =
  match best with
  | None -> Float.is_finite report.Objective.cost
  | Some { report = b; _ } -> report.Objective.cost < b.Objective.cost

let search ~rng ~starts ~sample ~solve ~accept =
  (* start [i] samples from the [i]-th stream split off [rng], so its
     point does not depend on what the earlier starts did.  A start
     whose solver raises is contained: it simply stops being a
     candidate, and all-starts-raising yields [None] for the caller to
     classify rather than an escaped exception. *)
  let rec go i best =
    if i >= starts then best
    else
      let x0 = sample (Rng.split rng) in
      match solve x0 with
      | exception _ -> go (i + 1) best
      | report ->
          let run = { report; start_index = i } in
          if accept report then Some run
          else go (i + 1) (if better_than best report then Some run else best)
  in
  go 0 None

let sample_box bounds ~fallback rng =
  Array.map
    (fun { Bounds.lo; hi } ->
      let lo = if Float.is_finite lo then lo else -.fallback in
      let hi = if Float.is_finite hi then hi else fallback in
      Qturbo_util.Rng.uniform rng ~lo ~hi)
    bounds
