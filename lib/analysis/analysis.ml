open Qturbo_pauli
open Qturbo_aais

(* Passes 1 and 2 over the target's terms: every coverage finding, then
   every feasibility finding, each in term order.  Only the producer of
   [rate_of] differs between the reference and a plan's table. *)
let term_checks ~n_qubits ~rate_of ~target ~t_tar ?t_max () =
  let coverage = ref [] and feasibility = ref [] in
  let push acc = Option.iter (fun d -> acc := d :: !acc) in
  List.iter
    (fun (s, coeff) ->
      let rate = rate_of s in
      push coverage (Coverage.judge ~n_qubits ~covered:(Option.is_some rate) s);
      match rate with
      | Some rate when coeff <> 0.0 ->
          push feasibility (Feasibility.judge ?t_max ~t_tar s coeff rate)
      | _ -> ())
    (Pauli_sum.terms (Pauli_sum.drop_identity target));
  List.rev_append !coverage (List.rev !feasibility)

let static_checks ~aais ~target ~t_tar ?t_max () =
  let channels = Aais.channels aais in
  let variables = Aais.variables aais in
  Device_check.variables variables
  @ term_checks ~n_qubits:aais.Aais.n_qubits
      ~rate_of:(Feasibility.scan ~channels ~variables ~target)
      ~target ~t_tar ?t_max ()
  @ Truncation.check ~aais ~t_tar

type table = {
  pool : Diagnostic.t list;
  rates : Feasibility.interval option array;
}

let table ~channels ~variables ~matrix ~rows =
  let rate = Feasibility.channel_rates ~channels ~variables in
  {
    pool = Device_check.variables variables;
    rates = Array.init rows (Feasibility.row_rate ~rate matrix);
  }

let target_checks table ~aais ~rate_of ~target ~t_tar ?t_max () =
  table.pool
  @ term_checks ~n_qubits:aais.Aais.n_qubits ~rate_of ~target ~t_tar ?t_max ()
  @ Truncation.check ~aais ~t_tar

let check_or_raise diags =
  match Diagnostic.errors diags with
  | [] -> ()
  | errs -> raise (Diagnostic.Rejected errs)
