(** Units/limits analysis (pass 4).

    Sanity checks on device presets, variable pools and compiled pulse
    schedules:

    {ul
    {- [QT009] (error): a variable with inverted or NaN bounds, or a
       non-finite initial guess;}
    {- [QT010] (warning): suspected MHz / rad·µs⁻¹ unit mixing in a
       Rydberg spec — the [c6] coefficient follows one convention while
       [omega_max]/[delta_max] follow the other;}
    {- [QT011] (error): non-positive or nonsensical device limits
       ([c6], [min_separation], [max_time] must be positive;
       [omega_max], [delta_max], [omega_slew_max] non-negative;
       [max_extent >= min_separation]);}
    {- [QT012] (error): a compiled pulse schedule outside the device's
       amplitude/time limits (unified with
       {!Qturbo_aais.Pulse.within_limits});}
    {- [QT013] (warning): Rabi slew-rate violations on internal schedule
       transitions ({!Qturbo_aais.Pulse.slew_violations}) — a warning
       because the ramping post-pass is expected to fix these.}} *)

val rydberg_spec : Qturbo_aais.Device.rydberg -> Diagnostic.t list
(** [QT010] and [QT011]. *)

val heisenberg_spec : Qturbo_aais.Device.heisenberg -> Diagnostic.t list
(** [QT011]. *)

val iontrap_spec : Qturbo_aais.Device.iontrap -> Diagnostic.t list
(** [QT011]: [omega_max], [mu_max], [j_max], [falloff] non-negative
    (and [falloff] finite), [coupling_range] and [max_ions] at least 1,
    [max_time] positive. *)

val variables : Qturbo_aais.Variable.t array -> Diagnostic.t list
(** [QT009]. *)

val rydberg_pulse :
  violations:string list -> Qturbo_aais.Pulse.rydberg -> Diagnostic.t list
(** [QT012], one per message of [violations] — the pulse's
    {!Qturbo_aais.Pulse.within_limits}, which the caller has already
    computed — and [QT013]. *)

val heisenberg_pulse : Qturbo_aais.Pulse.heisenberg -> Diagnostic.t list
(** [QT012] (unified with {!Qturbo_aais.Pulse.heisenberg_within_limits}). *)

val iontrap_pulse : Qturbo_aais.Pulse.iontrap -> Diagnostic.t list
(** [QT012] (unified with {!Qturbo_aais.Pulse.iontrap_within_limits});
    no [QT013] — ion traps have no slew limit. *)
