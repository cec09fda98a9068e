open Qturbo_aais

type comp = { id : int; channel_ids : int list; var_ids : int list }

let check ~channels ~variables ~matrix ~comps =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* QT005: channels absent from every row and feeding no term. *)
  let n_ch = Array.length channels in
  let in_rows = Array.make (Int.max 1 n_ch) false in
  let values = Qturbo_linalg.Csr.values matrix in
  Array.iteri
    (fun k cid ->
      if values.(k) <> 0.0 && cid >= 0 && cid < n_ch then in_rows.(cid) <- true)
    (Qturbo_linalg.Csr.col_idx matrix);
  Array.iter
    (fun (c : Instruction.channel) ->
      let feeds_term =
        List.exists
          (fun (e : Instruction.effect) ->
            e.coeff <> 0.0
            && not (Qturbo_pauli.Pauli_string.is_identity e.pstring))
          c.effects
      in
      if (not feeds_term) && not (c.cid >= 0 && c.cid < n_ch && in_rows.(c.cid))
      then
        add
          (Diagnostic.make ~code:"QT005" ~severity:Diagnostic.Error
             ~subject:(Diagnostic.Channel { cid = c.cid; label = c.label })
             ~hint:
               "remove the channel from the AAIS or give it a non-identity \
                effect; an unconstrained synthesized variable makes the \
                solved pulse schedule ill-defined"
             "synthesized variable feeds no Hamiltonian term and appears in \
              no system equation"))
    channels;
  (* QT006: variables no channel expression mentions.  The locality
     decomposition already unions each channel's expression variables, and
     drops variable-only groups, so a variable is used iff it appears in
     some component — [comps] must be the full decomposition. *)
  let n_vars = Array.length variables in
  let used_vars = Array.make (Int.max 1 n_vars) false in
  List.iter
    (fun c ->
      List.iter
        (fun v -> if v >= 0 && v < n_vars then used_vars.(v) <- true)
        c.var_ids)
    comps;
  Array.iter
    (fun (v : Variable.t) ->
      if not (v.id >= 0 && v.id < n_vars && used_vars.(v.id)) then
        add
          (Diagnostic.make ~code:"QT006" ~severity:Diagnostic.Warning
             ~subject:(Diagnostic.Variable { id = v.id; name = v.name })
             ~hint:"drop the variable from the pool or wire it into a channel"
             "amplitude variable is used by no channel expression"))
    variables;
  (* QT007: locally over-constrained components. *)
  List.iter
    (fun c ->
      let free =
        List.fold_left
          (fun n vid ->
            let v = variables.(vid) in
            if v.Variable.bound.lo < v.Variable.bound.hi then n + 1 else n)
          0 c.var_ids
      in
      let n_ch = List.length c.channel_ids in
      if n_ch > free + 1 then
        let all_dynamic =
          List.for_all (fun vid -> Variable.is_dynamic variables.(vid)) c.var_ids
        in
        let severity =
          if all_dynamic then Diagnostic.Warning else Diagnostic.Info
        in
        add
          (Diagnostic.make ~code:"QT007" ~severity
             ~subject:
               (Diagnostic.Component
                  {
                    id = c.id;
                    channels = n_ch;
                    variables = List.length c.var_ids;
                  })
             ~hint:
               "the local solver will fall back to a least-squares fit; \
                expect a nonzero residual unless the extra equations are \
                consistent by construction"
             (Printf.sprintf
                "%d channels constrained by only %d free variables (+1 shared \
                 evolution time)"
                n_ch free)))
    comps;
  List.rev !diags
