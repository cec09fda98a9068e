open Qturbo_pauli
open Qturbo_aais
module Diagnostic = Qturbo_analysis.Diagnostic

type report = {
  error_l1 : float;
  relative_error : float;
  max_term_error : float;
  executable : bool;
  violations : string list;
  diagnostics : Diagnostic.t list;
  consistent_with_compiler : bool;
  failures : Qturbo_resilience.Failure.t list;
  degraded : bool;
  plan : Compiler.plan_stats;
}

(* The three sums of [compare_terms], in a flat float record so that
   updating them allocates nothing. *)
type sums = {
  mutable l1 : float;
  mutable max_term : float;
  mutable norm : float;
}

(* [Float.max], written out so that it inlines and its operands stay
   unboxed: NaN in either operand gives NaN. *)
let[@inline] float_max x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y else x

let[@inline] add sums d =
  let a = Float.abs d in
  sums.l1 <- sums.l1 +. a;
  sums.max_term <- float_max sums.max_term a

(* the target's side of a term, [-(t_tar c)], adding [|t_tar c|] to the
   target norm *)
let[@inline] tar_term sums ~t_tar c =
  let b = t_tar *. c in
  sums.norm <- sums.norm +. Float.abs b;
  -.b

(* ‖B_sim − B_tar‖₁, its largest term and ‖B_tar‖₁ in one merge of two
   ascending term streams, with B = T·H and the identity dropped on both
   sides.  [sim] feeds the simulator's terms in ascending
   [Pauli_string.compare] order.  Sums run in that order with the
   association of [Pauli_sum]'s [scale]/[sub]/[norm1] — [t_sim *. h],
   then [+. -.(t_tar *. c)] where the target has the term too — so every
   value is bit-identical to the map-built comparison's; only the maps
   are gone.  [pending.(next ..)] are the target terms not yet merged. *)
let compare_terms ~sim ~t_sim ~target ~t_tar =
  let sums = { l1 = 0.0; max_term = 0.0; norm = 0.0 } in
  (* [Pauli_sum.scale 0.0] is the empty sum *)
  let pending =
    if t_tar = 0.0 then [||]
    else
      Array.of_list
        (List.filter
           (fun (s, _) -> not (Pauli_string.is_identity s))
           (Pauli_sum.terms target))
  in
  let next = ref 0 in
  let rec merge s h =
    if !next = Array.length pending then add sums (t_sim *. h)
    else
      let s', c = pending.(!next) in
      let order = Pauli_string.compare s' s in
      if order < 0 then begin
        add sums (tar_term sums ~t_tar c);
        incr next;
        merge s h
      end
      else if order = 0 then begin
        add sums ((t_sim *. h) +. tar_term sums ~t_tar c);
        incr next
      end
      else add sums (t_sim *. h)
  in
  if t_sim <> 0.0 then
    sim (fun s h -> if not (Pauli_string.is_identity s) then merge s h);
  for k = !next to Array.length pending - 1 do
    add sums (tar_term sums ~t_tar (snd pending.(k)))
  done;
  let relative_error =
    if sums.norm > 0.0 then sums.l1 /. sums.norm *. 100.0 else 0.0
  in
  (sums.l1, relative_error, sums.max_term)

let iter_sum h f = List.iter (fun (s, c) -> f s c) (Pauli_sum.terms h)

let consistency ~recomputed (result : Compiler.result) =
  Float.abs (recomputed -. result.Compiler.error_l1)
  <= 1e-6 +. (0.01 *. Float.max recomputed result.Compiler.error_l1)

let verify_rydberg ryd ~target ~t_tar (result : Compiler.result) =
  let env = result.Compiler.env in
  let t_sim = result.Compiler.t_sim in
  let error_l1, relative_error, max_term_error =
    compare_terms ~sim:(Rydberg.iter_terms ryd ~env) ~t_sim ~target ~t_tar
  in
  let pulse = Extract.rydberg_pulse ryd ~env ~t_sim in
  let violations = Pulse.within_limits pulse in
  (* QT012 for the hard limit violations above, QT013 for slew findings
     (informational here: raw compiled pulses are rectangles and only
     pass the slew check after the ramping post-pass) *)
  let diagnostics =
    Qturbo_analysis.Device_check.rydberg_pulse ~violations pulse
  in
  {
    error_l1;
    relative_error;
    max_term_error;
    executable = violations = [];
    violations;
    diagnostics;
    consistent_with_compiler = consistency ~recomputed:error_l1 result;
    failures = result.Compiler.failures;
    degraded = result.Compiler.degraded;
    plan = result.Compiler.plan;
  }

let verify_heisenberg heis ~target ~t_tar (result : Compiler.result) =
  let env = result.Compiler.env in
  let t_sim = result.Compiler.t_sim in
  let error_l1, relative_error, max_term_error =
    compare_terms
      ~sim:(iter_sum (Heisenberg.hamiltonian heis ~env))
      ~t_sim ~target ~t_tar
  in
  (* amplitude bounds *)
  let violations = ref [] in
  let diagnostics = ref [] in
  Array.iter
    (fun (v : Variable.t) ->
      let x = env.(v.Variable.id) in
      if not (Qturbo_optim.Bounds.contains v.Variable.bound x) then begin
        violations :=
          Printf.sprintf "%s = %g outside its bound" v.Variable.name x
          :: !violations;
        diagnostics :=
          Diagnostic.make ~code:"QT015" ~severity:Diagnostic.Error
            ~subject:(Diagnostic.Variable { id = v.id; name = v.name })
            ~hint:"the local solver left the feasible box; file a bug"
            (Printf.sprintf "compiled value %g violates bound [%g, %g]" x
               v.Variable.bound.lo v.Variable.bound.hi)
          :: !diagnostics
      end)
    (Aais.variables heis.Heisenberg.aais);
  if t_sim > heis.Heisenberg.spec.Device.max_time then begin
    violations :=
      Printf.sprintf "T_sim %.3f us exceeds device limit" t_sim :: !violations;
    diagnostics :=
      Diagnostic.make ~code:"QT014" ~severity:Diagnostic.Error
        ~subject:Diagnostic.Pulse
        ~hint:
          "split the evolution into repeated shorter executions or rescale \
           the target"
        (Printf.sprintf "T_sim %.3f us exceeds the device limit %.3f us" t_sim
           heis.Heisenberg.spec.Device.max_time)
      :: !diagnostics
  end;
  {
    error_l1;
    relative_error;
    max_term_error;
    executable = !violations = [];
    violations = !violations;
    diagnostics = !diagnostics;
    consistent_with_compiler = consistency ~recomputed:error_l1 result;
    failures = result.Compiler.failures;
    degraded = result.Compiler.degraded;
    plan = result.Compiler.plan;
  }

let verify_iontrap trap ~target ~t_tar (result : Compiler.result) =
  let env = result.Compiler.env in
  let t_sim = result.Compiler.t_sim in
  let error_l1, relative_error, max_term_error =
    compare_terms
      ~sim:(iter_sum (Iontrap.hamiltonian trap ~env))
      ~t_sim ~target ~t_tar
  in
  let pulse = Extract.iontrap_pulse trap ~env ~t_sim in
  let violations = ref (Pulse.iontrap_within_limits pulse) in
  let diagnostics = ref (Qturbo_analysis.Device_check.iontrap_pulse pulse) in
  if t_sim > trap.Iontrap.spec.Device.max_time then begin
    (* already a QT012 violation via within_limits, but keep the QT014
       schedule-length diagnostic uniform across families *)
    diagnostics :=
      !diagnostics
      @ [
          Diagnostic.make ~code:"QT014" ~severity:Diagnostic.Error
            ~subject:Diagnostic.Pulse
            ~hint:
              "split the evolution into repeated shorter executions or \
               rescale the target"
            (Printf.sprintf "T_sim %.3f us exceeds the device limit %.3f us"
               t_sim trap.Iontrap.spec.Device.max_time);
        ]
  end;
  {
    error_l1;
    relative_error;
    max_term_error;
    executable = !violations = [];
    violations = !violations;
    diagnostics = !diagnostics;
    consistent_with_compiler = consistency ~recomputed:error_l1 result;
    failures = result.Compiler.failures;
    degraded = result.Compiler.degraded;
    plan = result.Compiler.plan;
  }

(* All float emission goes through [Json.float_lit]: degraded
   best-effort results can carry nan/inf error metrics, and "%.17g"
   would render them as invalid JSON — the helper maps non-finite
   values to null. *)
let jf = Qturbo_util.Json.float_lit

let plan_to_json (p : Compiler.plan_stats) =
  Printf.sprintf
    {|{"enabled":%b,"hit":%b,"store_enabled":%b,"store_hit":%b,"hits":%d,"misses":%d,"discarded":%d,"key_hits":%d,"key_misses":%d,"key_evictions":%d,"build_seconds":%s,"solve_seconds":%s}|}
    p.Compiler.cache_enabled p.Compiler.cache_hit p.Compiler.store_enabled
    p.Compiler.store_hit p.Compiler.cache_hits p.Compiler.cache_misses
    p.Compiler.cache_discarded p.Compiler.key_hits p.Compiler.key_misses
    p.Compiler.key_evictions
    (jf p.Compiler.build_seconds)
    (jf p.Compiler.solve_seconds)

let report_to_json r =
  let jstr s = "\"" ^ Diagnostic.json_escape s ^ "\"" in
  Printf.sprintf
    {|{"error_l1":%s,"relative_error":%s,"max_term_error":%s,"executable":%b,"consistent_with_compiler":%b,"degraded":%b,"violations":[%s],"analysis":%s,"failures":%s,"plan_cache":%s}|}
    (jf r.error_l1) (jf r.relative_error) (jf r.max_term_error) r.executable
    r.consistent_with_compiler r.degraded
    (String.concat "," (List.map jstr r.violations))
    (Diagnostic.list_to_json r.diagnostics)
    (Qturbo_resilience.Failure.list_to_json r.failures)
    (plan_to_json r.plan)
