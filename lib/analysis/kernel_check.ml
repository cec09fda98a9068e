open Qturbo_aais

let error ~subject ~code ?hint msg =
  Diagnostic.make ~code ~severity:Diagnostic.Error ~subject ?hint msg

(* (pops, pushes) of one instruction.  [K_unknown] is reported as QT022
   and treated as a no-op so the walk can keep scanning for further
   reference violations. *)
let stack_effect (i : Expr.vm_instr) =
  match i with
  | K_const _ | K_var _ | K_vv _ | K_dsq _ | K_var_sin _ | K_var_cos _ -> (0, 1)
  | K_neg | K_pow _ | K_sin | K_cos | K_var_op _ | K_const_op _ | K_sq | K_cube
  | K_crdiv _ ->
      (1, 1)
  | K_binop _ -> (2, 1)
  | K_unknown _ -> (0, 0)

let instr_name (i : Expr.vm_instr) =
  match i with
  | K_const _ -> "const"
  | K_var _ -> "var"
  | K_neg -> "neg"
  | K_binop Expr.B_add -> "add"
  | K_binop Expr.B_sub -> "sub"
  | K_binop Expr.B_mul -> "mul"
  | K_binop Expr.B_div -> "div"
  | K_pow _ -> "pow"
  | K_sin -> "sin"
  | K_cos -> "cos"
  | K_vv _ -> "vv-binop"
  | K_var_op _ -> "var-binop"
  | K_const_op _ -> "const-binop"
  | K_sq -> "sq"
  | K_cube -> "cube"
  | K_dsq _ -> "dsq"
  | K_crdiv _ -> "crdiv"
  | K_var_sin _ -> "var-sin"
  | K_var_cos _ -> "var-cos"
  | K_unknown _ -> "unknown"

(* Interval-interpret a stack-safe, well-formed program using the exact
   interval primitives of [Expr.eval_interval].  [bnd] supplies one
   sanitized interval per environment slot. *)
let interval_exec prog consts ~bnd =
  let module I = Expr.Interval in
  let app2 b x y =
    match (b : Expr.binop) with
    | B_add -> I.add x y
    | B_sub -> I.sub x y
    | B_mul -> I.mul x y
    | B_div -> I.div x y
  in
  let st = ref [] in
  let push x = st := x :: !st in
  let pop () =
    match !st with
    | x :: rest ->
        st := rest;
        x
    | [] -> assert false (* caller established stack safety *)
  in
  Array.iter
    (fun (i : Expr.vm_instr) ->
      match i with
      | K_const ci -> push (I.of_const consts.(ci))
      | K_var v -> push (bnd v)
      | K_neg -> push (I.neg (pop ()))
      | K_binop b ->
          let y = pop () in
          let x = pop () in
          push (app2 b x y)
      | K_pow n -> push (I.pow (pop ()) n)
      | K_sin -> push (I.sin_ (pop ()))
      | K_cos -> push (I.cos_ (pop ()))
      | K_vv (b, a, c) -> push (app2 b (bnd a) (bnd c))
      | K_var_op (b, v) ->
          let x = pop () in
          push (app2 b x (bnd v))
      | K_const_op (b, ci) ->
          let x = pop () in
          push (app2 b x (I.of_const consts.(ci)))
      | K_sq -> push (I.pow (pop ()) 2)
      | K_cube -> push (I.pow (pop ()) 3)
      | K_dsq (a, c) -> push (I.pow (I.sub (bnd a) (bnd c)) 2)
      | K_crdiv ci ->
          let x = pop () in
          push (I.div (I.of_const consts.(ci)) x)
      | K_var_sin v -> push (I.sin_ (bnd v))
      | K_var_cos v -> push (I.cos_ (bnd v))
      | K_unknown _ -> assert false (* caller established well-formedness *))
    prog;
  pop ()

let check ?(subject = Diagnostic.System) ?source ?bounds ~n_env kernel =
  let prog = Expr.kernel_view kernel in
  let consts = Expr.kernel_consts kernel in
  let n_consts = Array.length consts in
  let declared_max = Expr.kernel_max_var kernel in
  let declared_depth = Expr.kernel_depth kernel in
  (* single forward walk: exact stack-effect typing + reference checks *)
  let cur = ref 0 and high = ref 0 in
  let underflow = ref None in
  let bad_vars = ref [] and bad_consts = ref [] and unknowns = ref [] in
  let note r v = if not (List.mem v !r) then r := v :: !r in
  let see_var v = if v < 0 || v >= n_env || v > declared_max then note bad_vars v in
  let see_const ci = if ci < 0 || ci >= n_consts then note bad_consts ci in
  Array.iteri
    (fun pc (i : Expr.vm_instr) ->
      (match i with
      | K_const ci -> see_const ci
      | K_var v -> see_var v
      | K_vv (_, a, b) | K_dsq (a, b) ->
          see_var a;
          see_var b
      | K_var_op (_, v) | K_var_sin v | K_var_cos v -> see_var v
      | K_const_op (_, ci) | K_crdiv ci -> see_const ci
      | K_unknown { op; arg } -> unknowns := (pc, op, arg) :: !unknowns
      | K_neg | K_binop _ | K_pow _ | K_sin | K_cos | K_sq | K_cube -> ());
      let pops, pushes = stack_effect i in
      if !underflow = None then
        if !cur < pops then underflow := Some (pc, i)
        else begin
          cur := !cur - pops + pushes;
          if !cur > !high then high := !cur
        end)
    prog;
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match !underflow with
  | Some (pc, i) ->
      add
        (error ~subject ~code:"QT017"
           ~hint:"the kernel was not produced by Expr.compile; rebuild it"
           (Printf.sprintf
              "kernel stack underflow: step %d (%s) pops more values than the \
               program has pushed"
              pc (instr_name i)))
  | None ->
      if Array.length prog = 0 then
        add
          (error ~subject ~code:"QT018"
             ~hint:"an empty program returns an uninitialized stack slot"
             "kernel program is empty: evaluation would return stale scratch")
      else if !cur <> 1 then
        add
          (error ~subject ~code:"QT018"
             ~hint:"a postfix program must leave exactly the result on the stack"
             (Printf.sprintf
                "kernel terminates with stack depth %d (expected 1)" !cur)));
  if !bad_vars <> [] then
    add
      (error ~subject ~code:"QT019"
         ~hint:
           (Printf.sprintf
              "environment has %d slots and the kernel declares max_var %d"
              n_env declared_max)
         (Printf.sprintf "kernel reads variable id%s %s outside its declared environment"
            (if List.length !bad_vars > 1 then "s" else "")
            (String.concat ", "
               (List.map string_of_int (List.sort compare !bad_vars)))));
  if !underflow = None && !high > declared_depth then
    add
      (error ~subject ~code:"QT020"
         ~hint:
           "eval_kernel sizes its scratch from the declared depth; exceeding \
            it writes out of bounds"
         (Printf.sprintf
            "kernel declares %d stack slot%s but needs %d" declared_depth
            (if declared_depth = 1 then "" else "s")
            !high));
  List.iter
    (fun (pc, op, arg) ->
      add
        (error ~subject ~code:"QT022"
           ~hint:"opcodes 28-31 are unassigned; the program word is corrupt"
           (Printf.sprintf "kernel step %d has invalid opcode %d (arg %d)" pc op
              arg)))
    (List.rev !unknowns);
  if !bad_consts <> [] then
    add
      (error ~subject ~code:"QT022"
         ~hint:(Printf.sprintf "the constant table has %d entries" n_consts)
         (Printf.sprintf
            "kernel references constant index%s %s outside its constant table"
            (if List.length !bad_consts > 1 then "es" else "")
            (String.concat ", "
               (List.map string_of_int (List.sort compare !bad_consts)))));
  (* Range soundness: only meaningful once the program is structurally
     sound (the abstract interpreter assumes stack safety). *)
  (match source with
  | Some src when !diags = [] ->
      let module I = Expr.Interval in
      let given = match bounds with Some b -> b | None -> [||] in
      let bnd v =
        if v >= 0 && v < Array.length given then I.of_bound given.(v)
        else I.whole
      in
      let src_slots =
        List.fold_left (fun acc v -> Stdlib.max acc (v + 1)) n_env
          (Expr.vars src)
      in
      let bfull = Array.init src_slots bnd in
      let klo, khi = interval_exec prog consts ~bnd in
      let slo, shi = Expr.eval_interval src ~bounds:bfull in
      if not (klo <= slo && khi >= shi) then
        add
          (error ~subject ~code:"QT021"
             ~hint:
               "the compiled program provably computes a different function \
                than its source expression"
             (Printf.sprintf
                "kernel range [%h, %h] does not enclose the source \
                 expression's range [%h, %h]"
                klo khi slo shi))
  | _ -> ());
  List.rev !diags

let check_channel ~n_vars ~bounds (ch : Instruction.channel) =
  check
    ~subject:(Diagnostic.Channel { cid = ch.cid; label = ch.label })
    ~source:(Instruction.expr ch) ~bounds ~n_env:n_vars ch.kernel

(* A device carries O(n²) channels, but almost all of them are copies of
   a handful of expression shapes that differ only in which variables
   they read (every van-der-Waals pair, every per-site detuning, …).
   Verification is invariant under a variable-id bijection once the ids
   are folded into (a) the per-variable environment/witness predicate
   and (b) the per-variable bound interval, so [check_aais] canonicalizes
   each channel by first-use renaming and verifies one representative
   per class.  Only clean results are memoized: a failing channel is
   re-checked individually so its diagnostics carry the real ids. *)
let canonical_class n_vars bounds (ch : Instruction.channel) =
  let view = Expr.kernel_view ch.kernel in
  let declared_max = Expr.kernel_max_var ch.kernel in
  let map = Hashtbl.create 8 in
  let order = ref [] in
  let next = ref 0 in
  let rename v =
    match Hashtbl.find_opt map v with
    | Some c -> c
    | None ->
        let c = !next in
        incr next;
        Hashtbl.add map v c;
        order := v :: !order;
        c
  in
  let cview =
    Array.map
      (function
        | Expr.K_var v -> Expr.K_var (rename v)
        | Expr.K_vv (op, a, b) ->
            let a = rename a in
            let b = rename b in
            Expr.K_vv (op, a, b)
        | Expr.K_var_op (op, v) -> Expr.K_var_op (op, rename v)
        | Expr.K_dsq (a, b) ->
            let a = rename a in
            let b = rename b in
            Expr.K_dsq (a, b)
        | Expr.K_var_sin v -> Expr.K_var_sin (rename v)
        | Expr.K_var_cos v -> Expr.K_var_cos (rename v)
        | instr -> instr)
      view
  in
  let csrc =
    Expr.map_vars (fun l -> rename ch.ids.(l)) (Expr.template_expr ch.template)
  in
  let originals = List.rev !order in
  (* everything QT019 asks about a variable id, resolved per canonical
     slot; two channels with equal flag lists behave identically *)
  let env_flags =
    List.map (fun v -> v >= 0 && v < n_vars && v <= declared_max) originals
  in
  (* the bound interval each canonical slot resolves to, sanitized the
     way the interval walk will *)
  let cbounds =
    let module I = Expr.Interval in
    List.map
      (fun v ->
        if v >= 0 && v < Array.length bounds then I.of_bound bounds.(v)
        else I.whole)
      originals
  in
  ( cview,
    Expr.kernel_consts ch.kernel,
    Expr.kernel_depth ch.kernel,
    env_flags,
    csrc,
    cbounds )

let check_aais aais =
  let channels = Aais.channels aais in
  let vars = Aais.variables aais in
  let n_vars = Array.length vars in
  let bounds =
    Array.map
      (fun (v : Variable.t) -> (v.bound.Qturbo_optim.Bounds.lo, v.bound.hi))
      vars
  in
  let memo = Hashtbl.create 64 in
  Array.to_list channels
  |> List.concat_map (fun ch ->
         let key = canonical_class n_vars bounds ch in
         match Hashtbl.find_opt memo key with
         | Some () -> []
         | None ->
             let diags = check_channel ~n_vars ~bounds ch in
             if diags = [] then Hashtbl.add memo key ();
             diags)

let verify_compiled src kernel =
  let n_env =
    List.fold_left (fun acc v -> Stdlib.max acc (v + 1)) 0 (Expr.vars src)
  in
  match check ~source:src ~n_env kernel with
  | [] -> ()
  | diags -> raise (Diagnostic.Rejected diags)

let install_compile_hook () = Expr.compile_hook := verify_compiled

(* Verify-at-birth opt-in: any process started with QTURBO_VERIFY_KERNELS
   set gets the hook installed as soon as this library initializes. *)
let () =
  match Sys.getenv_opt "QTURBO_VERIFY_KERNELS" with
  | Some ("1" | "true" | "yes") -> install_compile_hook ()
  | _ -> ()
