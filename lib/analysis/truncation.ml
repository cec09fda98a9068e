open Qturbo_aais

let check ~(aais : Aais.t) ~t_tar =
  match aais.Aais.truncation with
  | None -> []
  | Some tr ->
      let estimate = tr.Aais.dropped_l1 *. t_tar in
      [
        Diagnostic.make ~code:"QT029" ~severity:Diagnostic.Info
          ~subject:(Diagnostic.Device aais.Aais.name)
          ~hint:
            "compile with the all-pairs cutoff (or a larger radius) if \
             this exceeds the simulation's error budget"
          (Printf.sprintf
             "interaction cutoff at %g um dropped %d of %d pair channels \
              (kept %d); omitted-coupling L1 weight %.3e (largest single \
              pair %.3e) at the initial layout, an estimated %.3e added to \
              the Theorem-1 bound over t_tar = %g"
             tr.Aais.radius tr.Aais.dropped_pairs
             (tr.Aais.kept_pairs + tr.Aais.dropped_pairs)
             tr.Aais.kept_pairs tr.Aais.dropped_l1 tr.Aais.max_dropped
             estimate t_tar);
      ]
