open Qturbo_pauli

type effect = { pstring : Pauli_string.t; coeff : float }

type solver_hint =
  | Hint_linear of { var : int; slope : float }
  | Hint_polar_cos of { amp : int; phase : int; scale : float }
  | Hint_polar_sin of { amp : int; phase : int; scale : float }
  | Hint_fixed
  | Hint_generic

type channel = {
  cid : int;
  label : string;
  template : Expr.template;
  ids : int array;
  kernel : Expr.kernel;
  effects : effect list;
  hint : solver_hint;
}

type t = { label : string; channels : channel list; variables : int list }

let expr c = Expr.instance_expr c.template c.ids

let validate_hint c =
  match c.hint with
  | Hint_linear { var; slope } -> (
      match Expr.is_linear_in (expr c) var with
      | Some k -> Float.abs (k -. slope) <= 1e-12 *. Float.max 1.0 (Float.abs k)
      | None -> false)
  | Hint_polar_cos { amp; phase; scale } | Hint_polar_sin { amp; phase; scale }
    ->
      (* structural check: depends on exactly {amp, phase}; numerical
         check at a few probe points against the declared closed form.
         The probes evaluate on a two-slot environment (amp in slot 0,
         phase in slot 1) rather than one indexed by variable id, so a
         device's validation stays linear in its channels. *)
      let e = expr c in
      Expr.vars e = List.sort Int.compare [ amp; phase ]
      && begin
           let is_sin =
             match c.hint with
             | Hint_polar_sin _ -> true
             | Hint_polar_cos _ | Hint_linear _ | Hint_fixed | Hint_generic ->
                 false
           in
           let local =
             Expr.map_vars (fun v -> if v = amp then 0 else 1) e
           in
           let env = [| 0.0; 0.0 |] in
           let probe (a, p) =
             env.(0) <- a;
             env.(1) <- p;
             let expect =
               if is_sin then scale *. a *. sin p else scale *. a *. cos p
             in
             Float.abs (Expr.eval local ~env -. expect)
             <= 1e-9 *. Float.max 1.0 (Float.abs expect)
           in
           List.for_all probe
             [ (1.0, 0.0); (2.0, 0.7); (0.5, -1.3); (3.0, 2.9) ]
         end
  | Hint_fixed | Hint_generic -> true

(* the kernel is made eagerly here rather than lazily at first use:
   channels are shared across pool domains and [Lazy.force] is not safe
   under concurrent forcing *)
let channel ~cid ~label ~template ~ids ~effects ~hint =
  let kernel = Expr.instance template ids in
  let c = { cid; label; template; ids; kernel; effects; hint } in
  if not (validate_hint c) then
    invalid_arg ("Instruction.channel: hint contradicts expression: " ^ label);
  c

let channel_of_expr ~cid ~label ~expr ~effects ~hint =
  let template, ids = Expr.split expr in
  channel ~cid ~label ~template ~ids ~effects ~hint

let eval_channel c ~env = Expr.eval_kernel c.kernel ~env

let make ~label ~channels =
  let ids = Array.concat (List.map (fun c -> c.ids) channels) in
  Array.sort Int.compare ids;
  let variables =
    Array.fold_right
      (fun v acc -> match acc with w :: _ when w = v -> acc | _ -> v :: acc)
      ids []
  in
  { label; channels; variables }

let effect_terms c =
  List.filter_map
    (fun { pstring; coeff } ->
      if Pauli_string.is_identity pstring then None else Some (pstring, coeff))
    c.effects
