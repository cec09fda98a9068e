open Qturbo_pauli

type rydberg_segment = {
  duration : float;
  omega : float array;
  phi : float array;
  delta : float array;
}

type rydberg = {
  spec : Device.rydberg;
  positions : (float * float) array;
  segments : rydberg_segment list;
}

let rydberg_duration p =
  List.fold_left (fun acc s -> acc +. s.duration) 0.0 p.segments

let rydberg_segment_hamiltonians p =
  List.map
    (fun s ->
      ( Rydberg.hamiltonian_of_pulse ~spec:p.spec ~positions:p.positions
          ~omega:s.omega ~phi:s.phi ~delta:s.delta (),
        s.duration ))
    p.segments

let within_limits p =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iteri
    (fun k s ->
      Array.iteri
        (fun i w ->
          if w < -1e-9 || w > p.spec.Device.omega_max +. 1e-9 then
            add "segment %d: omega(%d)=%.3f outside [0, %.3f]" k i w
              p.spec.Device.omega_max)
        s.omega;
      Array.iteri
        (fun i d ->
          if Float.abs d > p.spec.Device.delta_max +. 1e-9 then
            add "segment %d: |delta(%d)|=%.3f > %.3f" k i (Float.abs d)
              p.spec.Device.delta_max)
        s.delta)
    p.segments;
  if rydberg_duration p > p.spec.Device.max_time +. 1e-9 then
    add "total duration %.3f us > device limit %.3f us" (rydberg_duration p)
      p.spec.Device.max_time;
  List.iter (fun v -> violations := v :: !violations)
    (Rydberg.check_layout ~spec:p.spec p.positions);
  List.rev !violations

let slew_violations p =
  let limit = p.spec.Device.omega_slew_max in
  if not (Float.is_finite limit) then []
  else begin
    let violations = ref [] in
    let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let n = Array.length p.positions in
    let check label rate =
      if rate > limit *. (1.0 +. 1e-9) then
        add "%s: slew %.3f exceeds %.3f" label rate limit
    in
    let segs = Array.of_list p.segments in
    let m = Array.length segs in
    for k = 0 to m - 2 do
      for i = 0 to n - 1 do
        let dt =
          Float.max 1e-12 ((segs.(k).duration +. segs.(k + 1).duration) /. 2.0)
        in
        check
          (Printf.sprintf "segment %d->%d omega(%d)" k (k + 1) i)
          (Float.abs (segs.(k + 1).omega.(i) -. segs.(k).omega.(i)) /. dt)
      done
    done;
    List.rev !violations
  end

let pp_rydberg ppf p =
  Format.fprintf ppf "rydberg pulse (%d atoms, %d segments, %.4f us)@."
    (Array.length p.positions) (List.length p.segments) (rydberg_duration p);
  Array.iteri
    (fun i (x, y) -> Format.fprintf ppf "  atom %d at (%.2f, %.2f) um@." i x y)
    p.positions;
  List.iteri
    (fun k s ->
      Format.fprintf ppf "  segment %d: %.4f us omega=%s delta=%s@." k
        s.duration
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.3f") s.omega)))
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.3f") s.delta))))
    p.segments

type heisenberg_segment = {
  duration : float;
  amplitudes : (Pauli_string.t * float) list;
}

type heisenberg = { spec : Device.heisenberg; segments : heisenberg_segment list }

let heisenberg_duration p =
  List.fold_left (fun acc s -> acc +. s.duration) 0.0 p.segments

let heisenberg_segment_hamiltonians p =
  List.map (fun s -> (Pauli_sum.of_list s.amplitudes, s.duration)) p.segments

let heisenberg_within_limits p =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iteri
    (fun k s ->
      List.iter
        (fun (pstring, a) ->
          let bound =
            if Pauli_string.weight pstring <= 1 then p.spec.Device.single_max
            else p.spec.Device.two_max
          in
          if Float.abs a > bound +. 1e-9 then
            add "segment %d: |a^%s|=%.3f > %.3f" k
              (Format.asprintf "%a" Pauli_string.pp pstring)
              (Float.abs a) bound)
        s.amplitudes)
    p.segments;
  if heisenberg_duration p > p.spec.Device.max_time +. 1e-9 then
    add "total duration %.3f us > device limit %.3f us" (heisenberg_duration p)
      p.spec.Device.max_time;
  List.rev !violations

let pp_heisenberg ppf p =
  Format.fprintf ppf "heisenberg pulse (%d segments, %.4f us)@."
    (List.length p.segments) (heisenberg_duration p);
  List.iteri
    (fun k s ->
      Format.fprintf ppf "  segment %d: %.4f us, %d active terms@." k s.duration
        (List.length s.amplitudes))
    p.segments

type iontrap_segment = {
  duration : float;
  omega : float array;
  phi : float array;
  mu : float array;
  couplings : (int * int * Pauli.op * float) list;
}

type iontrap = { spec : Device.iontrap; segments : iontrap_segment list }

let iontrap_duration p =
  List.fold_left (fun acc s -> acc +. s.duration) 0.0 p.segments

let iontrap_within_limits p =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iteri
    (fun k s ->
      Array.iteri
        (fun i w ->
          if w < -1e-9 || w > p.spec.Device.omega_max +. 1e-9 then
            add "segment %d: omega(%d)=%.3f outside [0, %.3f]" k i w
              p.spec.Device.omega_max)
        s.omega;
      Array.iteri
        (fun i m ->
          if Float.abs m > p.spec.Device.mu_max +. 1e-9 then
            add "segment %d: |mu(%d)|=%.3f > %.3f" k i (Float.abs m)
              p.spec.Device.mu_max)
        s.mu;
      List.iter
        (fun (i, j, op, a) ->
          if abs (j - i) > p.spec.Device.coupling_range then
            add "segment %d: coupling %s(%d,%d) beyond range %d" k
              (Pauli.op_to_string op) i j p.spec.Device.coupling_range
          else begin
            let bound = Iontrap.pair_bound ~spec:p.spec ~i ~j in
            if Float.abs a > bound +. 1e-9 then
              add "segment %d: |J^%s(%d,%d)|=%.3f > %.3f" k
                (Pauli.op_to_string op) i j (Float.abs a) bound
          end)
        s.couplings)
    p.segments;
  if iontrap_duration p > p.spec.Device.max_time +. 1e-9 then
    add "total duration %.3f us > device limit %.3f us" (iontrap_duration p)
      p.spec.Device.max_time;
  List.rev !violations

let pp_iontrap ppf p =
  let n =
    match p.segments with [] -> 0 | s :: _ -> Array.length s.omega
  in
  Format.fprintf ppf "iontrap pulse (%d ions, %d segments, %.4f us)@." n
    (List.length p.segments) (iontrap_duration p);
  List.iteri
    (fun k s ->
      Format.fprintf ppf
        "  segment %d: %.4f us omega=%s mu=%s, %d active couplings@." k
        s.duration
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.3f") s.omega)))
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.3f") s.mu)))
        (List.length
           (List.filter (fun (_, _, _, a) -> a <> 0.0) s.couplings)))
    p.segments
