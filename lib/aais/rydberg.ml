open Qturbo_pauli

type t = {
  aais : Aais.t;
  spec : Device.rydberg;
  n : int;
  xs : Variable.t array;
  ys : Variable.t array option;
  deltas : Variable.t array;
  omegas : Variable.t array;
  phis : Variable.t array;
}

(* Default inter-atom spacing for initial layouts: comfortably above the
   minimum separation and in the range where C6/(4d^6) is of order the
   MHz-scale couplings the benchmarks target. *)
let default_spacing = 9.0

let chain_inits n = Array.init n (fun i -> (float_of_int i *. default_spacing, 0.0))

let polygon_inits n =
  if n = 1 then [| (0.0, 0.0) |]
  else begin
    let r = default_spacing /. (2.0 *. sin (Float.pi /. float_of_int n)) in
    let raw =
      Array.init n (fun k ->
          let th = 2.0 *. Float.pi *. float_of_int k /. float_of_int n in
          (r *. cos th, r *. sin th))
    in
    (* translate so atom 0 sits at the origin, rotate so atom 1 has y = 0 *)
    let x0, y0 = raw.(0) in
    let shifted = Array.map (fun (x, y) -> (x -. x0, y -. y0)) raw in
    let x1, y1 = shifted.(Int.min 1 (n - 1)) in
    let d = Float.max 1e-12 (sqrt ((x1 *. x1) +. (y1 *. y1))) in
    let c = x1 /. d and s = y1 /. d in
    Array.map (fun (x, y) -> ((c *. x) +. (s *. y), (c *. y) -. (s *. x))) shifted
  end

type cutoff = All_pairs | Radius of float | Auto

(* Above this atom count [Auto] switches from exact all-pairs channels
   to the neighbor-list cutoff; every bench/test size up to n = 93 stays
   on the untouched exact path. *)
let auto_threshold = 96

(* 2.5 lattice spacings keeps first and second neighbors on both the
   chain and the polygon layouts; the nearest dropped pair sits at
   >= 3 spacings, where the van-der-Waals amplitude has fallen to
   (1/3)^6 ~ 0.14% of the nearest-neighbor coupling. *)
let auto_radius_factor = 2.5

let resolve_cutoff ~cutoff ~n =
  match cutoff with
  | All_pairs -> None
  | Radius r ->
      if not (Float.is_finite r && r > 0.0) then
        invalid_arg "Rydberg.build: cutoff radius must be positive and finite";
      Some r
  | Auto ->
      if n <= auto_threshold then None
      else Some (auto_radius_factor *. default_spacing)

(* Neighbor-list pair enumeration: all (i, j), i < j, with
   |p_i - p_j| <= radius, in the exact (i ascending, j ascending) order
   of the quadratic double loop.  A uniform cell grid at the cutoff
   length makes this O(n) for bounded-density layouts: any qualifying
   pair lands in the same or an adjacent cell. *)
let pairs_within ~radius positions =
  let n = Array.length positions in
  let cell = Float.max radius 1e-9 in
  let key (x, y) =
    (int_of_float (floor (x /. cell)), int_of_float (floor (y /. cell)))
  in
  let bins = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i p ->
      let k = key p in
      Hashtbl.replace bins k
        (i :: Option.value ~default:[] (Hashtbl.find_opt bins k)))
    positions;
  let r2 = radius *. radius in
  let out = ref [] in
  for i = 0 to n - 1 do
    let cx, cy = key positions.(i) in
    let cands = ref [] in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        match Hashtbl.find_opt bins (cx + dx, cy + dy) with
        | None -> ()
        | Some l -> List.iter (fun j -> if j > i then cands := j :: !cands) l
      done
    done;
    List.iter
      (fun j ->
        let xi, yi = positions.(i) and xj, yj = positions.(j) in
        let dx = xi -. xj and dy = yi -. yj in
        if (dx *. dx) +. (dy *. dy) <= r2 then out := (i, j) :: !out)
      (List.sort_uniq Int.compare !cands)
  done;
  List.rev !out

let check_layout_positions ~spec positions =
  let n = Array.length positions in
  let violations = ref [] in
  let check_pair i j =
    let xi, yi = positions.(i) and xj, yj = positions.(j) in
    let d = sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)) in
    if d < spec.Device.min_separation then
      violations :=
        Printf.sprintf "atoms %d,%d separated by %.2f um < %.2f um" i j d
          spec.Device.min_separation
        :: !violations
  in
  if n <= auto_threshold then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        check_pair i j
      done
    done
  else
    (* grid at the minimum separation: any violating pair is within one
       cell, and the candidates come back in (i, j) order, so the
       violation list matches the quadratic loop's exactly *)
    List.iter
      (fun (i, j) -> check_pair i j)
      (pairs_within ~radius:spec.Device.min_separation positions);
  let xs = Array.map fst positions and ys = Array.map snd positions in
  let extent coords =
    let lo = Array.fold_left Float.min infinity coords in
    let hi = Array.fold_left Float.max neg_infinity coords in
    hi -. lo
  in
  let span = Float.max (extent xs) (extent ys) in
  if span > spec.Device.max_extent then
    violations :=
      Printf.sprintf "layout spans %.1f um > %.1f um window" span
        spec.Device.max_extent
      :: !violations;
  List.rev !violations

let build_cutoff ~cutoff ~spec ~n =
  if n < 1 then invalid_arg "Rydberg.build: need at least one atom";
  let pool = Variable.create_pool () in
  let inits =
    match spec.Device.geometry with
    | Device.Line -> chain_inits n
    | Device.Plane -> polygon_inits n
  in
  let extent = spec.Device.max_extent in
  let coord ~name ~pinned ~init =
    if pinned then
      Variable.fresh pool ~name ~kind:Variable.Runtime_fixed ~lo:0.0 ~hi:0.0
        ~init:0.0 ()
    else
      Variable.fresh pool ~name ~kind:Variable.Runtime_fixed
        ~lo:(-2.0 *. extent) ~hi:(2.0 *. extent) ~init ()
  in
  let xs =
    Array.init n (fun i ->
        coord ~name:(Printf.sprintf "x%d" i) ~pinned:(i = 0)
          ~init:(fst inits.(i)))
  in
  let ys =
    match spec.Device.geometry with
    | Device.Line -> None
    | Device.Plane ->
        Some
          (Array.init n (fun i ->
               coord
                 ~name:(Printf.sprintf "y%d" i)
                 ~pinned:(i = 0 || i = 1)
                 ~init:(snd inits.(i))))
  in
  let n_controls =
    match spec.Device.control with Device.Global -> 1 | Device.Local -> n
  in
  let deltas =
    Array.init n_controls (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "delta%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:(-.spec.Device.delta_max)
          ~hi:spec.Device.delta_max ~init:0.0 ())
  in
  let omegas =
    Array.init n_controls (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "omega%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:spec.Device.omega_max
          ~init:0.0 ())
  in
  let phis =
    Array.init n_controls (fun i ->
        Variable.fresh pool
          ~name:(Printf.sprintf "phi%d" i)
          ~kind:Variable.Runtime_dynamic ~lo:(-.Float.pi) ~hi:Float.pi ~init:0.0 ())
  in
  let next_cid = ref 0 in
  let fresh_cid () =
    let c = !next_cid in
    incr next_cid;
    c
  in
  let dist6_expr i j =
    let dx = Expr.(var xs.(i) - var xs.(j)) in
    match ys with
    | None -> Expr.pow dx 6
    | Some ys -> Expr.(pow (pow dx 2 + pow (var ys.(i) - var ys.(j)) 2) 3)
  in
  (* pair selection: exact all-pairs, or the neighbor list of the
     initial layout under the cutoff radius.  The kept pairs are
     enumerated in the same (i ascending, j ascending) order either way,
     so when nothing is dropped the channels — ids, labels, expressions —
     are byte-identical to the exact build and the structural cache key
     comes out the same. *)
  let cutoff_radius = resolve_cutoff ~cutoff ~n in
  let vdw_pairs =
    match cutoff_radius with
    | None ->
        List.concat
          (List.init n (fun i ->
               List.filter_map
                 (fun j -> if j <= i then None else Some (i, j))
                 (List.init n Fun.id)))
    | Some radius -> pairs_within ~radius inits
  in
  let truncation =
    match cutoff_radius with
    | None -> None
    | Some radius ->
        let kept = List.length vdw_pairs in
        let dropped = (n * (n - 1) / 2) - kept in
        if dropped = 0 then None
        else begin
          (* exact complement sums over the initial layout — simple float
             ops, no allocation; this is diagnostic bookkeeping, not a
             compile hot path *)
          let r2 = radius *. radius in
          let sum = ref 0.0 and maxd = ref 0.0 in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              let xi, yi = inits.(i) and xj, yj = inits.(j) in
              let dx = xi -. xj and dy = yi -. yj in
              let d2 = (dx *. dx) +. (dy *. dy) in
              if d2 > r2 then begin
                let a = Float.abs (spec.Device.c6 /. (4.0 *. (d2 ** 3.0))) in
                (* three effects per pair channel: Z_iZ_j, Z_i, Z_j *)
                sum := !sum +. (3.0 *. a);
                if a > !maxd then maxd := a
              end
            done
          done;
          Some
            {
              Aais.radius;
              kept_pairs = kept;
              dropped_pairs = dropped;
              dropped_l1 = !sum;
              max_dropped = !maxd;
            }
        end
  in
  let vdw_instructions =
    List.map
      (fun (i, j) ->
        let expr = Expr.(const (spec.Device.c6 /. 4.0) / dist6_expr i j) in
        let effects =
          [
            {
              Instruction.pstring = Pauli_string.two i Pauli.Z j Pauli.Z;
              coeff = 1.0;
            };
            { Instruction.pstring = Pauli_string.single i Pauli.Z; coeff = -1.0 };
            { Instruction.pstring = Pauli_string.single j Pauli.Z; coeff = -1.0 };
          ]
        in
        let channel =
          Instruction.channel ~cid:(fresh_cid ())
            ~label:(Printf.sprintf "vdw(%d,%d)" i j)
            ~expr ~effects ~hint:Instruction.Hint_fixed
        in
        Instruction.make
          ~label:(Printf.sprintf "vdw(%d,%d)" i j)
          ~channels:[ channel ])
      vdw_pairs
  in
  let control_index i =
    match spec.Device.control with Device.Global -> 0 | Device.Local -> i
  in
  let detuning_instructions =
    match spec.Device.control with
    | Device.Local ->
        List.init n (fun i ->
            let expr = Expr.(const 0.5 * var deltas.(i)) in
            let channel =
              Instruction.channel ~cid:(fresh_cid ())
                ~label:(Printf.sprintf "detuning(%d)" i)
                ~expr
                ~effects:
                  [ { Instruction.pstring = Pauli_string.single i Pauli.Z; coeff = 1.0 } ]
                ~hint:
                  (Instruction.Hint_linear
                     { var = deltas.(i).Variable.id; slope = 0.5 })
            in
            Instruction.make ~label:(Printf.sprintf "detuning(%d)" i)
              ~channels:[ channel ])
    | Device.Global ->
        let channels =
          List.init n (fun i ->
              Instruction.channel ~cid:(fresh_cid ())
                ~label:(Printf.sprintf "detuning-global@%d" i)
                ~expr:Expr.(const 0.5 * var deltas.(0))
                ~effects:
                  [ { Instruction.pstring = Pauli_string.single i Pauli.Z; coeff = 1.0 } ]
                ~hint:
                  (Instruction.Hint_linear
                     { var = deltas.(0).Variable.id; slope = 0.5 }))
        in
        [ Instruction.make ~label:"detuning(global)" ~channels ]
  in
  let rabi_channels i =
    let k = control_index i in
    let omega = omegas.(k) and phi = phis.(k) in
    let cos_channel =
      Instruction.channel ~cid:(fresh_cid ())
        ~label:(Printf.sprintf "rabi-cos(%d)" i)
        ~expr:Expr.(const 0.5 * var omega * cos_ (var phi))
        ~effects:
          [ { Instruction.pstring = Pauli_string.single i Pauli.X; coeff = 1.0 } ]
        ~hint:
          (Instruction.Hint_polar_cos
             { amp = omega.Variable.id; phase = phi.Variable.id; scale = 0.5 })
    in
    let sin_channel =
      Instruction.channel ~cid:(fresh_cid ())
        ~label:(Printf.sprintf "rabi-sin(%d)" i)
        ~expr:Expr.(neg (const 0.5 * var omega * sin_ (var phi)))
        ~effects:
          [ { Instruction.pstring = Pauli_string.single i Pauli.Y; coeff = 1.0 } ]
        ~hint:
          (Instruction.Hint_polar_sin
             { amp = omega.Variable.id; phase = phi.Variable.id; scale = -0.5 })
    in
    [ cos_channel; sin_channel ]
  in
  let rabi_instructions =
    match spec.Device.control with
    | Device.Local ->
        List.init n (fun i ->
            Instruction.make
              ~label:(Printf.sprintf "rabi(%d)" i)
              ~channels:(rabi_channels i))
    | Device.Global ->
        [
          Instruction.make ~label:"rabi(global)"
            ~channels:(List.concat (List.init n rabi_channels));
        ]
  in
  let instructions = vdw_instructions @ detuning_instructions @ rabi_instructions in
  let positions_of_env env =
    Array.init n (fun i ->
        let x = env.(xs.(i).Variable.id) in
        let y = match ys with None -> 0.0 | Some ys -> env.(ys.(i).Variable.id) in
        (x, y))
  in
  let check_fixed env = check_layout_positions ~spec (positions_of_env env) in
  let aais =
    (* the fingerprint renders every spec parameter the check_fixed
       closure captures, so structurally-keyed plan caches distinguish
       devices that differ only in their geometric constraints *)
    let fingerprint =
      Printf.sprintf "rydberg c6=%h omega=%h delta=%h sep=%h extent=%h %s %s"
        spec.Device.c6 spec.Device.omega_max spec.Device.delta_max
        spec.Device.min_separation spec.Device.max_extent
        (match spec.Device.control with
        | Device.Global -> "global"
        | Device.Local -> "local")
        (match spec.Device.geometry with
        | Device.Line -> "line"
        | Device.Plane -> "plane")
    in
    Aais.make ~name:(Printf.sprintf "rydberg[%s,n=%d]" spec.Device.name n)
      ~n_qubits:n ~pool ~instructions ~check_fixed ~fingerprint
      ?truncation ()
  in
  { aais; spec; n; xs; ys; deltas; omegas; phis }

let build ~spec ~n = build_cutoff ~cutoff:Auto ~spec ~n

let positions t ~env =
  Array.init t.n (fun i ->
      let x = env.(t.xs.(i).Variable.id) in
      let y =
        match t.ys with None -> 0.0 | Some ys -> env.(ys.(i).Variable.id)
      in
      (x, y))

let distance t ~env i j =
  let ps = positions t ~env in
  let xi, yi = ps.(i) and xj, yj = ps.(j) in
  sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0))

(* The physical Hamiltonian as a stream of (string, coefficient) terms
   in ascending [Pauli_string.compare] order: for each site i, X_i, Y_i,
   Z_i, then Z_iZ_j for every j > i.  Each coefficient is the float that
   adding the terms one by one into a [Pauli_sum] builds, in the order
   of the pair double loop: a pair (i, j) adds its amplitude to Z_iZ_j
   and subtracts it from Z_i and Z_j, then site i adds its detuning to
   Z_i.  Row i's pair amplitudes are computed once, into [amp]; when
   they are done every contribution to Z_i is in, so the site's
   single-qubit terms go out ahead of its pairs.  Zero coefficients are
   skipped, as [Pauli_sum.add_term] skips them. *)
let iter_terms_of_pulse ?cutoff_radius ~spec ~positions ~omega ~phi ~delta f =
  let n = Array.length positions in
  if Array.length omega <> n || Array.length phi <> n || Array.length delta <> n
  then invalid_arg "Rydberg.hamiltonian_of_pulse: per-atom array lengths";
  (* [cutoff_radius] reconstructs what a truncated AAIS compiles
     against; the default is the exact physics — a real device's
     van-der-Waals tails do not truncate *)
  let keep_all, r2 =
    match cutoff_radius with None -> (true, 0.0) | Some r -> (false, r *. r)
  in
  let emit s c = if c <> 0.0 then f s c in
  (* adding a zero leaves an accumulator that started at +0.0 unchanged,
     so unconditional sums match [add_term]'s zero skipping *)
  let z = Array.make n 0.0 in
  let amp = Array.make n 0.0 and kept = Array.make n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let xi, yi = positions.(i) and xj, yj = positions.(j) in
      let d2 = ((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0) in
      kept.(j) <- keep_all || d2 <= r2;
      if kept.(j) then begin
        let a = spec.Device.c6 /. (4.0 *. (d2 ** 3.0)) in
        amp.(j) <- a;
        z.(i) <- z.(i) +. -.a;
        z.(j) <- z.(j) +. -.a
      end
    done;
    z.(i) <- z.(i) +. (delta.(i) /. 2.0);
    emit (Pauli_string.single i Pauli.X) (omega.(i) /. 2.0 *. cos phi.(i));
    emit (Pauli_string.single i Pauli.Y) (-.(omega.(i) /. 2.0) *. sin phi.(i));
    emit (Pauli_string.single i Pauli.Z) z.(i);
    for j = i + 1 to n - 1 do
      if kept.(j) && amp.(j) <> 0.0 then
        f (Pauli_string.two i Pauli.Z j Pauli.Z) amp.(j)
    done
  done

let collect iter =
  let h = ref Pauli_sum.zero in
  iter (fun s c -> h := Pauli_sum.add_term !h s c);
  !h

let hamiltonian_of_pulse ?cutoff_radius ~spec ~positions ~omega ~phi ~delta () =
  collect
    (iter_terms_of_pulse ?cutoff_radius ~spec ~positions ~omega ~phi ~delta)

let iter_terms t ~env f =
  let k i =
    match t.spec.Device.control with Device.Global -> 0 | Device.Local -> i
  in
  let per_atom vars = Array.init t.n (fun i -> env.(vars.(k i).Variable.id)) in
  iter_terms_of_pulse ~spec:t.spec ~positions:(positions t ~env)
    ~omega:(per_atom t.omegas) ~phi:(per_atom t.phis) ~delta:(per_atom t.deltas)
    f

let hamiltonian t ~env = collect (iter_terms t ~env)

let check_layout ~spec positions = check_layout_positions ~spec positions
