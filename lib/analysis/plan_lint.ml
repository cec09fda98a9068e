module Ps = Qturbo_pauli.Pauli_string

type classification_view = {
  name : string;
  class_vars : int list;
  class_channels : int list;
}

type view = {
  support : Ps.t list;
  rows : Ps.t array;
  cells : (int * float) list array;
  csr : Qturbo_linalg.Csr.t;
  n_channels : int;
  n_vars : int;
  channel_terms : Ps.t list;
  components : (Structure.comp * classification_view) list;
}

let error ~subject ~code ?hint msg =
  Diagnostic.make ~code ~severity:Diagnostic.Error ~subject ?hint msg

let term_subject t = Diagnostic.Term t
let comp_subject (c : Structure.comp) =
  Diagnostic.Component
    {
      id = c.id;
      channels = List.length c.channel_ids;
      variables = List.length c.var_ids;
    }

module Ps_set = Set.Make (Ps)
module Ps_tbl = Hashtbl.Make (Ps)

(* ---- QT023: term index exactly covers the canonical support -------- *)

let check_term_index v =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_support = List.length v.support in
  let n_rows = Array.length v.rows in
  (* support terms must lead the index, in canonical order *)
  List.iteri
    (fun i t ->
      if i >= n_rows then
        add
          (error ~subject:(term_subject t) ~code:"QT023"
             ~hint:"the term index is shorter than the support"
             (Printf.sprintf "support term %s has no row" (Ps.to_string t)))
      else if not (Ps.equal v.rows.(i) t) then
        add
          (error ~subject:(term_subject t) ~code:"QT023"
             ~hint:"rows must lead with the support in canonical order"
             (Printf.sprintf "row %d is %s, expected support term %s" i
                (Ps.to_string v.rows.(i))
                (Ps.to_string t))))
    v.support;
  (* no duplicate rows.  Size the tables for their full load up front:
     on dense devices both hold O(n²) entries, and growing from a small
     seed rehashes every resident several times over. *)
  let seen = Ps_tbl.create (2 * n_rows) in
  Array.iteri
    (fun i t ->
      match Ps_tbl.find_opt seen t with
      | Some j ->
          add
            (error ~subject:(term_subject t) ~code:"QT023"
               ~hint:"each Pauli term owns exactly one system row"
               (Printf.sprintf "rows %d and %d both index term %s" j i
                  (Ps.to_string t)))
      | None -> Ps_tbl.add seen t i)
    v.rows;
  (* trailing rows must be channel-producible, and every channel term rowed *)
  let support_set = Ps_set.of_list v.support in
  let channel_set = Ps_tbl.create (2 * List.length v.channel_terms) in
  List.iter
    (fun t -> if not (Ps_tbl.mem channel_set t) then Ps_tbl.add channel_set t ())
    v.channel_terms;
  Array.iteri
    (fun i t ->
      if i >= n_support && not (Ps_tbl.mem channel_set t) then
        add
          (error ~subject:(term_subject t) ~code:"QT023"
             ~hint:"rows beyond the support must be channel-producible terms"
             (Printf.sprintf "row %d indexes term %s, which no channel produces"
                i (Ps.to_string t))))
    v.rows;
  Ps_tbl.iter
    (fun t () ->
      if (not (Ps_tbl.mem seen t)) && not (Ps_set.mem t support_set) then
        add
          (error ~subject:(term_subject t) ~code:"QT023"
             ~hint:
               "channel-producible terms need a (zero-target) row to be \
                driven to zero"
             (Printf.sprintf "channel term %s has no row" (Ps.to_string t))))
    channel_set;
  List.rev !diags

(* ---- QT024: skeleton dimensions -------------------------------------- *)

let check_skeleton v =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_rows = Array.length v.rows in
  if Array.length v.cells <> n_rows then
    add
      (error ~subject:Diagnostic.System ~code:"QT024"
         ~hint:"the skeleton must carry one cell list per indexed term"
         (Printf.sprintf "skeleton has %d cell rows for %d index rows"
            (Array.length v.cells) n_rows));
  let in_range = ref true in
  let last_row = Array.make v.n_channels (-1) in
  Array.iteri
    (fun i cells ->
      List.iter
        (fun (cid, _) ->
          if cid < 0 || cid >= v.n_channels then begin
            in_range := false;
            add
              (error ~subject:Diagnostic.System ~code:"QT024"
                 ~hint:
                   (Printf.sprintf "the device has %d channels" v.n_channels)
                 (Printf.sprintf
                    "skeleton row %d references channel %d outside [0, %d)" i
                    cid v.n_channels))
          end
          else if last_row.(cid) = i then
            add
              (error ~subject:Diagnostic.System ~code:"QT024"
                 ~hint:
                   "the greedy linear solve assumes each row names a channel \
                    once"
                 (Printf.sprintf "skeleton row %d names channel %d twice" i cid))
          else last_row.(cid) <- i)
        cells)
    v.cells;
  (* the linear solve, error_l1 and the Theorem-1 bound read the CSR,
     so it must be exactly the cells, packed in order *)
  if !in_range && not (Qturbo_linalg.Csr.packs v.csr ~cols:v.n_channels v.cells)
  then
    add
      (error ~subject:Diagnostic.System ~code:"QT024"
         ~hint:
           "the solve and the error metrics read the CSR; it must pack the \
            cell lists verbatim"
         "skeleton CSR disagrees with its cell lists");
  List.rev !diags

(* ---- QT025: locality components partition the channel set ----------- *)

let check_partition v =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* owner maps as plain arrays over the known id ranges: this pass
     walks every channel id of every component (O(n²) entries on dense
     devices), so hashing here dominated the whole linter *)
  let chan_owner = Array.make (Int.max v.n_channels 1) (-1) in
  let var_owner = Array.make (Int.max v.n_vars 1) (-1) in
  let comp_ids = Hashtbl.create 8 in
  List.iter
    (fun ((c : Structure.comp), _) ->
      (if Hashtbl.mem comp_ids c.id then
         add
           (error ~subject:(comp_subject c) ~code:"QT025"
              (Printf.sprintf "duplicate locality component id %d" c.id)));
      Hashtbl.replace comp_ids c.id ();
      List.iter
        (fun cid ->
          if cid < 0 || cid >= v.n_channels then
            add
              (error ~subject:(comp_subject c) ~code:"QT025"
                 (Printf.sprintf
                    "component %d lists channel %d outside [0, %d)" c.id cid
                    v.n_channels))
          else if chan_owner.(cid) >= 0 then
            add
              (error ~subject:(comp_subject c) ~code:"QT025"
                 ~hint:"components must be disjoint"
                 (Printf.sprintf "channel %d appears in components %d and %d"
                    cid chan_owner.(cid) c.id))
          else chan_owner.(cid) <- c.id)
        c.channel_ids;
      List.iter
        (fun vid ->
          if vid < 0 || vid >= v.n_vars then
            add
              (error ~subject:(comp_subject c) ~code:"QT025"
                 (Printf.sprintf
                    "component %d lists variable %d outside [0, %d)" c.id vid
                    v.n_vars))
          else if var_owner.(vid) >= 0 then
            add
              (error ~subject:(comp_subject c) ~code:"QT025"
                 ~hint:"a variable belongs to at most one component"
                 (Printf.sprintf "variable %d appears in components %d and %d"
                    vid var_owner.(vid) c.id))
          else var_owner.(vid) <- c.id)
        c.var_ids)
    v.components;
  for cid = 0 to v.n_channels - 1 do
    if chan_owner.(cid) < 0 then
      add
        (error ~subject:Diagnostic.System ~code:"QT025"
           ~hint:"every channel must land in exactly one locality component"
           (Printf.sprintf "channel %d belongs to no locality component" cid))
  done;
  List.rev !diags

(* ---- QT026: classifications consistent with component arity --------- *)

let check_classifications v =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun ((c : Structure.comp), (cl : classification_view)) ->
      let subset what ids universe =
        List.iter
          (fun id ->
            if not (List.mem id universe) then
              add
                (error ~subject:(comp_subject c) ~code:"QT026"
                   ~hint:
                     "a classification may only name its own component's \
                      channels and variables"
                   (Printf.sprintf
                      "%s classification of component %d names %s %d, which \
                       the component does not contain"
                      cl.name c.id what id)))
          ids
      in
      subset "variable" cl.class_vars c.var_ids;
      subset "channel" cl.class_channels c.channel_ids;
      match cl.name with
      | "const" ->
          if c.var_ids <> [] then
            add
              (error ~subject:(comp_subject c) ~code:"QT026"
                 ~hint:"const components carry no free variables"
                 (Printf.sprintf
                    "component %d is classified const but has %d variable%s"
                    c.id
                    (List.length c.var_ids)
                    (if List.length c.var_ids = 1 then "" else "s")))
      | "linear" ->
          if List.length cl.class_vars <> 1 then
            add
              (error ~subject:(comp_subject c) ~code:"QT026"
                 (Printf.sprintf
                    "linear classification of component %d names %d driver \
                     variables (expected 1)"
                    c.id
                    (List.length cl.class_vars)))
      | "polar" ->
          if List.length cl.class_vars <> 2 then
            add
              (error ~subject:(comp_subject c) ~code:"QT026"
                 (Printf.sprintf
                    "polar classification of component %d names %d variables \
                     (expected amplitude and phase)"
                    c.id
                    (List.length cl.class_vars)))
      | _ -> ())
    v.components;
  List.rev !diags

let check v =
  check_term_index v @ check_skeleton v @ check_partition v
  @ check_classifications v
