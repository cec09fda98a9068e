module Diagnostic = Qturbo_analysis.Diagnostic

include Compile_plan.Segments

let validate ~t_tar ~segments =
  Compile_plan.validate_t_tar ~who:"Td_compiler.compile" t_tar;
  if segments <= 0 then
    raise
      (Diagnostic.Rejected
         [
           Diagnostic.make ~code:"QT016" ~severity:Diagnostic.Error
             ~subject:Diagnostic.System
             ~hint:"discretize into at least one segment"
             (Printf.sprintf "Td_compiler.compile: segments must be >= 1, got %d"
                segments);
         ])

let compile ?(options = Compile_plan.default_options) ?(strict = true) ?t_max
    ~aais ~model ~t_tar ~segments () =
  validate ~t_tar ~segments;
  let t0 = Qturbo_util.Clock.now () in
  let hams = Qturbo_models.Model.discretize model ~segments in
  (* the register-size check, on every segment, before a plan is
     obtained ([t_tar] itself is already validated) *)
  List.iter (fun h -> Compile_plan.validate_target ~aais ~target:h ~t_tar) hams;
  (* One plan for every segment, keyed by the canonical union support
     of all of them: keying each by its own shape forked a second plan
     whenever a coefficient cancelled in one segment (the mis-chain
     quirk: K ≡ 2 mod 4 discretizations hit s = 0.75, which zeroes the
     end-atom Z terms), and a segment missing a term instantiates that
     row with b_tar = 0.  A target's support is already sorted and
     unique, so one segment's union is its own support. *)
  let support =
    List.sort_uniq Qturbo_pauli.Pauli_string.compare
      (List.concat_map Compile_plan.support_of_target hams)
  in
  let plan, provenance =
    Compile_plan.obtain_for_support ~options ~aais ~support
  in
  let r =
    Compile_plan.solve_segments ~options ~strict ?t_max ~provenance ~plan
      ~t_tar:(t_tar /. float_of_int segments)
      hams
  in
  { r with compile_seconds = Qturbo_util.Clock.now () -. t0 }
