open Qturbo_pauli

let judge ~n_qubits ~covered s =
  if Pauli_string.max_site s >= n_qubits then
    Some
      (Diagnostic.make ~code:"QT004" ~severity:Diagnostic.Error
         ~subject:(Diagnostic.Term s)
         ~hint:
           (Printf.sprintf
              "remap the target onto sites 0..%d or build a larger AAIS"
              (n_qubits - 1))
         (Printf.sprintf "term touches site %d but the AAIS has %d qubits"
            (Pauli_string.max_site s) n_qubits))
  else if not covered then
    Some
      (Diagnostic.make ~code:"QT001" ~severity:Diagnostic.Error
         ~subject:(Diagnostic.Term s)
         ~hint:
           "no instruction channel feeds this Pauli term; choose an AAIS \
            whose instructions span it, or transform the target (e.g. a \
            basis change) before compiling"
         "target term is not producible by any instruction channel")
  else None
