open Qturbo_aais

let bad_limit ~device ~field ~value ~want =
  Diagnostic.make ~code:"QT011" ~severity:Diagnostic.Error
    ~subject:(Diagnostic.Device device)
    ~hint:"fix the device preset; the compiler trusts these limits verbatim"
    (Printf.sprintf "%s = %g but must be %s" field value want)

let finite_pos x = Float.is_finite x && x > 0.0

let rydberg_limits (d : Device.rydberg) =
  let diags = ref [] in
  let err field value want = bad_limit ~device:d.name ~field ~value ~want in
  if not (finite_pos d.c6) then diags := err "c6" d.c6 "positive" :: !diags;
  if not (finite_pos d.min_separation) then
    diags := err "min_separation" d.min_separation "positive" :: !diags;
  if not (finite_pos d.max_time) then
    diags := err "max_time" d.max_time "positive" :: !diags;
  if Float.is_nan d.omega_max || d.omega_max < 0.0 then
    diags := err "omega_max" d.omega_max "non-negative" :: !diags;
  if Float.is_nan d.delta_max || d.delta_max < 0.0 then
    diags := err "delta_max" d.delta_max "non-negative" :: !diags;
  if Float.is_nan d.omega_slew_max || d.omega_slew_max < 0.0 then
    diags := err "omega_slew_max" d.omega_slew_max "non-negative" :: !diags;
  if
    Float.is_finite d.min_separation
    && (Float.is_nan d.max_extent || d.max_extent < d.min_separation)
  then
    diags :=
      err "max_extent" d.max_extent
        (Printf.sprintf "at least min_separation = %g" d.min_separation)
      :: !diags;
  List.rev !diags

(* Unit-mixing heuristic: the two Aquila conventions sit far apart —
   c6 = 862690 amplitude·µm⁶ with Ω ≲ 2.5, Δ ≲ 20 (plain MHz) versus
   c6 = 2π·862690 ≈ 5.42e6 with Ω ≈ 15.8, Δ ≈ 125 (rad/µs).  Only specs
   whose c6 clearly matches one convention are classified, so toy test
   devices never trigger this. *)
type convention = Mhz | Rad

let rydberg_units (d : Device.rydberg) =
  let c6_conv =
    if d.c6 >= 5.0e5 && d.c6 <= 1.5e6 then Some Mhz
    else if d.c6 >= 3.0e6 && d.c6 <= 1.0e7 then Some Rad
    else None
  in
  let amp_conv v ~mhz_max ~rad_min =
    if v > 0.0 && v <= mhz_max then Some Mhz
    else if v >= rad_min then Some Rad
    else None
  in
  match c6_conv with
  | None -> []
  | Some conv ->
      let clash field v other =
        Diagnostic.make ~code:"QT010" ~severity:Diagnostic.Warning
          ~subject:(Diagnostic.Device d.name)
          ~hint:
            "multiply MHz quantities by 2π to get rad/µs (or divide the \
             other way); mixed conventions compile without error but \
             execute the wrong Hamiltonian"
          (Printf.sprintf
             "c6 = %g looks like the %s convention but %s = %g looks like \
              %s"
             d.c6
             (match conv with Mhz -> "MHz" | Rad -> "rad/µs")
             field v
             (match other with Mhz -> "MHz" | Rad -> "rad/µs"))
      in
      let check field v ~mhz_max ~rad_min acc =
        match amp_conv v ~mhz_max ~rad_min with
        | Some c when c <> conv -> clash field v c :: acc
        | _ -> acc
      in
      []
      |> check "omega_max" d.omega_max ~mhz_max:4.0 ~rad_min:6.0
      |> check "delta_max" d.delta_max ~mhz_max:30.0 ~rad_min:60.0
      |> List.rev

let rydberg_spec d = rydberg_limits d @ rydberg_units d

let heisenberg_spec (d : Device.heisenberg) =
  let diags = ref [] in
  let err field value want = bad_limit ~device:d.name ~field ~value ~want in
  if Float.is_nan d.single_max || d.single_max < 0.0 then
    diags := err "single_max" d.single_max "non-negative" :: !diags;
  if Float.is_nan d.two_max || d.two_max < 0.0 then
    diags := err "two_max" d.two_max "non-negative" :: !diags;
  if not (finite_pos d.max_time) then
    diags := err "max_time" d.max_time "positive" :: !diags;
  List.rev !diags

let iontrap_spec (d : Device.iontrap) =
  let diags = ref [] in
  let err field value want = bad_limit ~device:d.name ~field ~value ~want in
  if Float.is_nan d.omega_max || d.omega_max < 0.0 then
    diags := err "omega_max" d.omega_max "non-negative" :: !diags;
  if Float.is_nan d.mu_max || d.mu_max < 0.0 then
    diags := err "mu_max" d.mu_max "non-negative" :: !diags;
  if Float.is_nan d.j_max || d.j_max < 0.0 then
    diags := err "j_max" d.j_max "non-negative" :: !diags;
  if Float.is_nan d.falloff || d.falloff < 0.0 then
    diags := err "falloff" d.falloff "finite and non-negative" :: !diags;
  if d.coupling_range < 1 then
    diags :=
      err "coupling_range" (float_of_int d.coupling_range) "at least 1"
      :: !diags;
  if d.max_ions < 1 then
    diags := err "max_ions" (float_of_int d.max_ions) "at least 1" :: !diags;
  if not (finite_pos d.max_time) then
    diags := err "max_time" d.max_time "positive" :: !diags;
  List.rev !diags

let variables vars =
  let diags = ref [] in
  Array.iter
    (fun (v : Variable.t) ->
      let lo = v.Variable.bound.lo and hi = v.Variable.bound.hi in
      if Float.is_nan lo || Float.is_nan hi || lo > hi then
        diags :=
          Diagnostic.make ~code:"QT009" ~severity:Diagnostic.Error
            ~subject:(Diagnostic.Variable { id = v.id; name = v.name })
            ~hint:"declare bounds with lo <= hi and finite values"
            (Printf.sprintf "bounds [%g, %g] are empty or NaN" lo hi)
          :: !diags
      else if not (Float.is_finite v.init) then
        diags :=
          Diagnostic.make ~code:"QT009" ~severity:Diagnostic.Error
            ~subject:(Diagnostic.Variable { id = v.id; name = v.name })
            ~hint:"give the solvers a finite starting point"
            (Printf.sprintf "initial guess %g is not finite" v.init)
          :: !diags)
    vars;
  List.rev !diags

let rydberg_pulse ~violations (p : Pulse.rydberg) =
  let limit_diags =
    List.map
      (fun msg ->
        Diagnostic.make ~code:"QT012" ~severity:Diagnostic.Error
          ~subject:Diagnostic.Pulse
          ~hint:
            "the schedule is not executable on this device; recompile \
             against the device's actual limits"
          msg)
      violations
  in
  let slew_diags =
    List.map
      (fun msg ->
        Diagnostic.make ~code:"QT013" ~severity:Diagnostic.Warning
          ~subject:Diagnostic.Pulse
          ~hint:"run the ramping post-pass to smooth the transitions"
          msg)
      (Pulse.slew_violations p)
  in
  limit_diags @ slew_diags

let heisenberg_pulse (p : Pulse.heisenberg) =
  List.map
    (fun msg ->
      Diagnostic.make ~code:"QT012" ~severity:Diagnostic.Error
        ~subject:Diagnostic.Pulse
        ~hint:
          "the schedule is not executable on this device; recompile \
           against the device's actual limits"
        msg)
    (Pulse.heisenberg_within_limits p)

(* No QT013 analogue: ion traps carry no slew limit in the spec, so the
   ramping post-pass is an identity for this family. *)
let iontrap_pulse (p : Pulse.iontrap) =
  List.map
    (fun msg ->
      Diagnostic.make ~code:"QT012" ~severity:Diagnostic.Error
        ~subject:Diagnostic.Pulse
        ~hint:
          "the schedule is not executable on this device; recompile \
           against the device's actual limits"
        msg)
    (Pulse.iontrap_within_limits p)
