type truncation = {
  radius : float;
  kept_pairs : int;
  dropped_pairs : int;
  dropped_l1 : float;
  max_dropped : float;
}

type rendering = { text : string; digest : Digest.t }

(* Filled on first use, never in [make]: callers that never key the
   device (checks, analysis) never pay for the rendering.  The pool size
   it was taken at travels with it, so a variable appended to the pool
   afterwards invalidates it.  An [Atomic] rather than a [Lazy]: two
   domains forcing one lazy value raise [Lazy.Undefined], while two
   domains filling this slot at once both store an equal rendering. *)
type key_memo = (int * rendering) option Atomic.t

type t = {
  name : string;
  n_qubits : int;
  pool : Variable.pool;
  instructions : Instruction.t list;
  channels : Instruction.channel array;
  check_fixed : float array -> string list;
  fingerprint : string;
  truncation : truncation option;
  key_memo : key_memo;
}

(* The instructions' channels indexed by cid, validated dense. *)
let channel_table instructions =
  let all =
    List.concat_map
      (fun (i : Instruction.t) -> i.Instruction.channels)
      instructions
  in
  let n = List.length all in
  let arr = Array.make n None in
  List.iter
    (fun (c : Instruction.channel) ->
      let cid = c.Instruction.cid in
      if cid < 0 || cid >= n then invalid_arg "Aais: channel id out of range";
      if arr.(cid) <> None then invalid_arg "Aais: duplicate channel id";
      arr.(cid) <- Some c)
    all;
  Array.map
    (function Some c -> c | None -> invalid_arg "Aais: missing channel id")
    arr

let make ~name ~n_qubits ~pool ~instructions ?(check_fixed = fun _ -> [])
    ?(fingerprint = "") ?truncation () =
  {
    name;
    n_qubits;
    pool;
    instructions;
    channels = channel_table instructions;
    check_fixed;
    fingerprint;
    truncation;
    key_memo = Atomic.make None;
  }

let memo_key t ~render =
  let size = Variable.count t.pool in
  match Atomic.get t.key_memo with
  | Some (at, r) when at = size -> r
  | _ ->
      let text = render t in
      let r = { text; digest = Digest.string text } in
      Atomic.set t.key_memo (Some (size, r));
      r

let without_key_memo t = { t with key_memo = Atomic.make None }

let channels t = t.channels
let channel_count t = Array.length t.channels

let variables t = Variable.all t.pool
let variable t id = (variables t).(id)

let fixed_variable_ids t =
  Array.to_list (variables t)
  |> List.filter Variable.is_fixed
  |> List.map (fun v -> v.Variable.id)
