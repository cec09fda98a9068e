open Qturbo_pauli

type t = {
  aais : Aais.t;
  spec : Device.iontrap;
  n : int;
  omegas : Variable.t array;
  phis : Variable.t array;
  mus : Variable.t array;
  pairs : (int * int * Pauli.op * Variable.t) list;
}

let ms_bases = [| Pauli.X; Pauli.Y; Pauli.Z |]

let pair_bound ~spec ~i ~j =
  let d = float_of_int (abs (j - i)) in
  spec.Device.j_max /. (d ** spec.Device.falloff)

let coupled_pairs ~spec ~n =
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j ->
             if j <= i || j - i > spec.Device.coupling_range then None
             else Some (i, j))
           (List.init n Fun.id)))

let build ~spec ~n =
  if n < 1 then invalid_arg "Iontrap.build: need at least one ion";
  if n > spec.Device.max_ions then
    invalid_arg
      (Printf.sprintf "Iontrap.build: %d ions exceed the trap limit %d" n
         spec.Device.max_ions);
  let pool = Variable.create_pool () in
  let next_cid = ref 0 in
  let fresh_cid () =
    let c = !next_cid in
    incr next_cid;
    c
  in
  (* every variable is runtime dynamic: a trap has no analogue of the
     Rydberg position solve, so compilation reduces to the linear/polar
     closed forms *)
  let pairs =
    List.concat_map
      (fun (i, j) ->
        let bound = pair_bound ~spec ~i ~j in
        Array.to_list
          (Array.map
             (fun op ->
               let v =
                 Variable.fresh pool
                   ~name:
                     (Printf.sprintf "J^%s(%d,%d)" (Pauli.op_to_string op) i j)
                   ~kind:Variable.Runtime_dynamic ~lo:(-.bound) ~hi:bound
                   ~init:0.0 ()
               in
               (i, j, op, v))
             ms_bases))
      (coupled_pairs ~spec ~n)
  in
  let mus =
    Array.init n (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "mu%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:(-.spec.Device.mu_max)
          ~hi:spec.Device.mu_max ~init:0.0 ())
  in
  let omegas =
    Array.init n (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "omega%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:spec.Device.omega_max
          ~init:0.0 ())
  in
  let phis =
    Array.init n (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "phi%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:(-.Float.pi) ~hi:Float.pi
          ~init:0.0 ())
  in
  (* the channel families, declared once per build *)
  let linear = Expr.template (Expr.Var 0) in
  let drive_cos = Expr.(template (const 0.5 * Var 0 * cos_ (Var 1))) in
  let drive_sin = Expr.(template (neg (const 0.5 * Var 0 * sin_ (Var 1)))) in
  let ms_instructions =
    List.map
      (fun (i, j, op, v) ->
        let base = String.lowercase_ascii (Pauli.op_to_string op) in
        let label = Printf.sprintf "ms-%s%s(%d,%d)" base base i j in
        let channel =
          Instruction.channel ~cid:(fresh_cid ()) ~label ~template:linear
            ~ids:[| v.Variable.id |]
            ~effects:
              [ { Instruction.pstring = Pauli_string.two i op j op; coeff = 1.0 } ]
            ~hint:(Instruction.Hint_linear { var = v.Variable.id; slope = 1.0 })
        in
        Instruction.make ~label ~channels:[ channel ])
      pairs
  in
  let shift_instructions =
    List.init n (fun i ->
        let label = Printf.sprintf "shift(%d)" i in
        let channel =
          Instruction.channel ~cid:(fresh_cid ()) ~label ~template:linear
            ~ids:[| mus.(i).Variable.id |]
            ~effects:
              [
                {
                  Instruction.pstring = Pauli_string.single i Pauli.Z;
                  coeff = 1.0;
                };
              ]
            ~hint:
              (Instruction.Hint_linear { var = mus.(i).Variable.id; slope = 1.0 })
        in
        Instruction.make ~label ~channels:[ channel ])
  in
  let drive_instructions =
    List.init n (fun i ->
        let omega = omegas.(i) and phi = phis.(i) in
        let ids = [| omega.Variable.id; phi.Variable.id |] in
        let cos_channel =
          Instruction.channel ~cid:(fresh_cid ())
            ~label:(Printf.sprintf "drive-cos(%d)" i)
            ~template:drive_cos ~ids
            ~effects:
              [
                {
                  Instruction.pstring = Pauli_string.single i Pauli.X;
                  coeff = 1.0;
                };
              ]
            ~hint:
              (Instruction.Hint_polar_cos
                 { amp = omega.Variable.id; phase = phi.Variable.id; scale = 0.5 })
        in
        let sin_channel =
          Instruction.channel ~cid:(fresh_cid ())
            ~label:(Printf.sprintf "drive-sin(%d)" i)
            ~template:drive_sin ~ids
            ~effects:
              [
                {
                  Instruction.pstring = Pauli_string.single i Pauli.Y;
                  coeff = 1.0;
                };
              ]
            ~hint:
              (Instruction.Hint_polar_sin
                 {
                   amp = omega.Variable.id;
                   phase = phi.Variable.id;
                   scale = -0.5;
                 })
        in
        Instruction.make
          ~label:(Printf.sprintf "drive(%d)" i)
          ~channels:[ cos_channel; sin_channel ])
  in
  let instructions = ms_instructions @ shift_instructions @ drive_instructions in
  let aais =
    Aais.make
      ~name:(Printf.sprintf "iontrap[%s,n=%d]" spec.Device.name n)
      ~n_qubits:n ~pool ~instructions
      ~fingerprint:
        (Printf.sprintf
           "iontrap omega=%h mu=%h j=%h falloff=%h range=%d maxions=%d"
           spec.Device.omega_max spec.Device.mu_max spec.Device.j_max
           spec.Device.falloff spec.Device.coupling_range spec.Device.max_ions)
      ()
  in
  { aais; spec; n; omegas; phis; mus; pairs }

let hamiltonian_of_pulse ~omega ~phi ~mu ~couplings () =
  let n = Array.length omega in
  if Array.length phi <> n || Array.length mu <> n then
    invalid_arg "Iontrap.hamiltonian_of_pulse: per-ion array lengths";
  let h = ref Pauli_sum.zero in
  let add c s = if c <> 0.0 then h := Pauli_sum.add_term !h s c in
  List.iter (fun (i, j, op, a) -> add a (Pauli_string.two i op j op)) couplings;
  for i = 0 to n - 1 do
    add mu.(i) (Pauli_string.single i Pauli.Z);
    add (omega.(i) /. 2.0 *. cos phi.(i)) (Pauli_string.single i Pauli.X);
    add (-.(omega.(i) /. 2.0) *. sin phi.(i)) (Pauli_string.single i Pauli.Y)
  done;
  !h

let hamiltonian t ~env =
  hamiltonian_of_pulse
    ~omega:(Array.map (fun (v : Variable.t) -> env.(v.Variable.id)) t.omegas)
    ~phi:(Array.map (fun (v : Variable.t) -> env.(v.Variable.id)) t.phis)
    ~mu:(Array.map (fun (v : Variable.t) -> env.(v.Variable.id)) t.mus)
    ~couplings:
      (List.map
         (fun (i, j, op, (v : Variable.t)) -> (i, j, op, env.(v.Variable.id)))
         t.pairs)
    ()
