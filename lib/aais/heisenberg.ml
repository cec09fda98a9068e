open Qturbo_pauli

type t = {
  aais : Aais.t;
  spec : Device.heisenberg;
  n : int;
  singles : Variable.t array array;
  pairs : (int * int * Variable.t array) list;
}

let pauli_ops = [| Pauli.X; Pauli.Y; Pauli.Z |]

let build ~spec ~n =
  if n < 1 then invalid_arg "Heisenberg.build: need at least one qubit";
  let pool = Variable.create_pool () in
  let next_cid = ref 0 in
  let fresh_cid () =
    let c = !next_cid in
    incr next_cid;
    c
  in
  let instructions = ref [] in
  (* every channel is one variable's linear drive *)
  let linear = Expr.template (Expr.Var 0) in
  let linear_instruction ~label ~bound ~pstring =
    let v =
      Variable.fresh pool ~name:label ~kind:Variable.Runtime_dynamic ~lo:(-.bound)
        ~hi:bound ~init:0.0 ()
    in
    let channel =
      Instruction.channel ~cid:(fresh_cid ()) ~label ~template:linear
        ~ids:[| v.Variable.id |]
        ~effects:[ { Instruction.pstring; coeff = 1.0 } ]
        ~hint:(Instruction.Hint_linear { var = v.Variable.id; slope = 1.0 })
    in
    instructions := Instruction.make ~label ~channels:[ channel ] :: !instructions;
    v
  in
  let singles =
    Array.init n (fun i ->
        Array.map
          (fun op ->
            linear_instruction
              ~label:(Printf.sprintf "a^%s%d" (Pauli.op_to_string op) i)
              ~bound:spec.Device.single_max
              ~pstring:(Pauli_string.single i op))
          pauli_ops)
  in
  let pair_list =
    let chain = List.init (Int.max 0 (n - 1)) (fun i -> (i, i + 1)) in
    if spec.Device.ring && n > 2 then chain @ [ (n - 1, 0) ] else chain
  in
  let pairs =
    List.map
      (fun (i, j) ->
        let vars =
          Array.map
            (fun op ->
              linear_instruction
                ~label:
                  (Printf.sprintf "a^%s%d%s%d" (Pauli.op_to_string op) i
                     (Pauli.op_to_string op) j)
                ~bound:spec.Device.two_max
                ~pstring:(Pauli_string.two i op j op))
            pauli_ops
        in
        (i, j, vars))
      pair_list
  in
  let aais =
    Aais.make
      ~name:(Printf.sprintf "heisenberg[%s,n=%d]" spec.Device.name n)
      ~n_qubits:n ~pool
      ~instructions:(List.rev !instructions)
      ~fingerprint:
        (Printf.sprintf "heisenberg single=%h two=%h ring=%b"
           spec.Device.single_max spec.Device.two_max spec.Device.ring)
      ()
  in
  { aais; spec; n; singles; pairs }

let hamiltonian t ~env =
  let h = ref Pauli_sum.zero in
  Array.iteri
    (fun i per_op ->
      Array.iteri
        (fun p v ->
          let a = env.(v.Variable.id) in
          if a <> 0.0 then
            h := Pauli_sum.add_term !h (Pauli_string.single i pauli_ops.(p)) a)
        per_op)
    t.singles;
  List.iter
    (fun (i, j, vars) ->
      Array.iteri
        (fun p v ->
          let a = env.(v.Variable.id) in
          if a <> 0.0 then
            h :=
              Pauli_sum.add_term !h
                (Pauli_string.two i pauli_ops.(p) j pauli_ops.(p))
                a)
        vars)
    t.pairs;
  !h
