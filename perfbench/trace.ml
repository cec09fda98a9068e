(* In-memory span recorder for the traced run.

   Spans are timed from the benchmark's side of each layer boundary,
   around calls into the layer's public functions.  Inside a span the
   pipeline's own stage marks ([Compile_plan.stage_hook]) split the
   plan and solve layers further; they are recorded with their times
   and interpreted after the operation ends.  Nothing is written until
   {!write} runs at the end of the benchmark. *)

let now = Unix.gettimeofday

type span = { layer : string; t0 : float; t1 : float }

type op = {
  label : string;
  start : float;
  stop : float;
  spans : span list;  (** in start order *)
  marks : (string * float) list;  (** stage marks, in firing order *)
  values : (string * float) list;  (** per-operation samples (sizes, counts) *)
}

let on = ref false
let ops : op list ref = ref []
let cur_spans : span list ref = ref []
let cur_marks : (string * float) list ref = ref []
let cur_values : (string * float) list ref = ref []

let install () =
  on := true;
  Qturbo_core.Compile_plan.stage_hook :=
    fun name -> if !on then cur_marks := (name, now ()) :: !cur_marks

let uninstall () =
  on := false;
  Qturbo_core.Compile_plan.stage_hook := fun _ -> ()

let reset () =
  ops := [];
  cur_spans := [];
  cur_marks := [];
  cur_values := []

let span layer f =
  if not !on then f ()
  else begin
    let t0 = now () in
    let finish () = cur_spans := { layer; t0; t1 = now () } :: !cur_spans in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let value name v = if !on then cur_values := (name, v) :: !cur_values

(* Wrap one benchmark operation.  Untraced, this is just [f ()]. *)
let op ~label f =
  if not !on then f ()
  else begin
    cur_spans := [];
    cur_marks := [];
    cur_values := [];
    let start = now () in
    let finish () =
      let stop = now () in
      ops :=
        {
          label;
          start;
          stop;
          spans = List.rev !cur_spans;
          marks = List.rev !cur_marks;
          values = List.rev !cur_values;
        }
        :: !ops
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let recorded () = List.rev !ops

let marks_within (o : op) (s : span) =
  List.filter (fun (_, t) -> t >= s.t0 && t <= s.t1) o.marks

let find_mark name ms = List.assoc_opt name ms

let plan_marks = [ "plan-build"; "plan-cache-hit"; "plan-store-hit" ]

(* Where the plan of a [plan.obtain] span came from: its first plan mark. *)
let first_plan_mark ms =
  List.find_opt (fun (name, _) -> List.mem name plan_marks) ms

(* Spans derived from the stage marks inside one recorded span:
   [plan.obtain] splits into lookup (entry to the first plan mark) and
   build (from [plan-build] to the return); [solve] splits at the
   precheck / linear-solve / local-solve marks.  The returned spans are
   children of [s]; whatever they do not cover is [s]'s self time. *)
let children (o : op) (s : span) =
  let ms = marks_within o s in
  match s.layer with
  | "plan.obtain" -> (
      match first_plan_mark ms with
      | None -> []
      | Some (name, t) ->
          { layer = "plan.lookup"; t0 = s.t0; t1 = t }
          ::
          (if name = "plan-build" then [ { layer = "plan.build"; t0 = t; t1 = s.t1 } ]
           else []))
  | "solve" -> (
      match
        (find_mark "precheck" ms, find_mark "linear-solve" ms,
         find_mark "local-solve" ms)
      with
      | Some p, Some l, Some c ->
          [
            { layer = "solve.precheck"; t0 = p; t1 = l };
            { layer = "solve.linear"; t0 = l; t1 = c };
            { layer = "solve.local"; t0 = c; t1 = s.t1 };
          ]
      | _ -> [])
  | _ -> []

let dur s = s.t1 -. s.t0

let write ~path ~context =
  let jf = Qturbo_util.Json.float_lit in
  let q = Qturbo_util.Json.quote in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"context\":%s,\"ops\":[" context;
      List.iteri
        (fun i (o : op) ->
          if i > 0 then output_char oc ',';
          let span_json (s : span) =
            Printf.sprintf "{\"layer\":%s,\"t0\":%s,\"t1\":%s}" (q s.layer)
              (jf (s.t0 -. o.start)) (jf (s.t1 -. o.start))
          in
          let all =
            List.concat_map (fun s -> s :: children o s) o.spans
          in
          Printf.fprintf oc
            "{\"id\":%d,\"label\":%s,\"wall\":%s,\"spans\":[%s],\"marks\":[%s],\"values\":{%s}}"
            i (q o.label)
            (jf (o.stop -. o.start))
            (String.concat "," (List.map span_json all))
            (String.concat ","
               (List.map
                  (fun (n, t) ->
                    Printf.sprintf "[%s,%s]" (q n) (jf (t -. o.start)))
                  o.marks))
            (String.concat ","
               (List.map (fun (n, v) -> Printf.sprintf "%s:%s" (q n) (jf v)) o.values)))
        (recorded ());
      output_string oc "]}\n")
