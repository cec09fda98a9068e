open Qturbo_optim

type kind = Runtime_fixed | Runtime_dynamic

type t = {
  id : int;
  name : string;
  kind : kind;
  bound : Bounds.bound;
  init : float;
}

type pool = { mutable vars : t list; mutable next : int }

let create_pool () = { vars = []; next = 0 }

let fresh pool ~name ~kind ?(lo = neg_infinity) ?(hi = infinity) ?init () =
  let bound = Bounds.make ~lo ~hi in
  let init =
    match init with
    | Some x -> Bounds.clamp bound x
    | None ->
        if Float.is_finite lo && Float.is_finite hi then (lo +. hi) /. 2.0
        else if Float.is_finite lo then lo
        else if Float.is_finite hi then hi
        else 0.0
  in
  let v = { id = pool.next; name; kind; bound; init } in
  pool.next <- pool.next + 1;
  pool.vars <- v :: pool.vars;
  v

let copy_pool pool = { vars = pool.vars; next = pool.next }
let count pool = pool.next

let all pool =
  let arr = Array.make pool.next None in
  List.iter (fun v -> arr.(v.id) <- Some v) pool.vars;
  Array.map
    (function Some v -> v | None -> invalid_arg "Variable.all: hole in pool")
    arr

let get pool id =
  if id < 0 || id >= pool.next then invalid_arg "Variable.get: unknown id";
  (all pool).(id)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let identical a b =
  a.id = b.id && String.equal a.name b.name && a.kind = b.kind
  && same_bits a.bound.Bounds.lo b.bound.Bounds.lo
  && same_bits a.bound.Bounds.hi b.bound.Bounds.hi
  && same_bits a.init b.init

let is_fixed v = v.kind = Runtime_fixed
let is_dynamic v = v.kind = Runtime_dynamic

let initial_env pool = Array.map (fun v -> v.init) (all pool)
let bounds_array pool = Array.map (fun v -> v.bound) (all pool)

let pp ppf v =
  Format.fprintf ppf "%s#%d(%s)" v.name v.id
    (match v.kind with Runtime_fixed -> "fixed" | Runtime_dynamic -> "dyn")
