let magic = "qturbo-plan-store 1"

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  version_mismatch : int;
  writes : int;
  write_errors : int;
}

type t = {
  dir : string;
  version : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable version_mismatch : int;
  mutable writes : int;
  mutable write_errors : int;
}

let sanitize_version v =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) v

let open_store ~version ~dir =
  {
    dir;
    version = sanitize_version version;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    corrupt = 0;
    version_mismatch = 0;
    writes = 0;
    write_errors = 0;
  }

let dir t = t.dir
let version t = t.version

let entry_path t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".plan")

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---- load ------------------------------------------------------------ *)

type verdict = Valid of string | Absent | Corrupt | Version_mismatch

(* Entry layout: four header lines (magic, version tag, "<key_len>
   <payload_len>", payload MD5 hex) followed by the raw key bytes and
   the raw payload bytes.  The key is stored in full — file names are
   only its digest, so an (improbable) file-name collision must read
   as a miss, not as another key's entry. *)
let validate t ~key text =
  let len = String.length text in
  let line_end from =
    match String.index_from_opt text from '\n' with
    | Some i -> i
    | None -> raise Exit
  in
  match
    let e1 = line_end 0 in
    let e2 = line_end (e1 + 1) in
    let e3 = line_end (e2 + 1) in
    let e4 = line_end (e3 + 1) in
    let line a b = String.sub text a (b - a) in
    let l_magic = line 0 e1 in
    let l_version = line (e1 + 1) e2 in
    let l_sizes = line (e2 + 1) e3 in
    let l_md5 = line (e3 + 1) e4 in
    if l_magic <> magic then Corrupt
    else
      let key_len, payload_len =
        match String.split_on_char ' ' l_sizes with
        | [ a; b ] -> (int_of_string a, int_of_string b)
        | _ -> raise Exit
      in
      if key_len < 0 || payload_len < 0 then Corrupt
      else
        let body = e4 + 1 in
        if len - body <> key_len + payload_len then Corrupt
        else if String.sub text body key_len <> key then Corrupt
        else if l_version <> t.version then Version_mismatch
        else
          let payload = String.sub text (body + key_len) payload_len in
          if Digest.to_hex (Digest.string payload) <> l_md5 then Corrupt
          else Valid payload
  with
  | v -> v
  | exception (Exit | Failure _ | Invalid_argument _) -> Corrupt

let load t ~key =
  let verdict =
    match
      In_channel.with_open_bin (entry_path t ~key) In_channel.input_all
    with
    | text -> validate t ~key text
    | exception Sys_error _ -> Absent
  in
  locked t (fun () ->
      match verdict with
      | Valid payload ->
          t.hits <- t.hits + 1;
          Some payload
      | Absent ->
          t.misses <- t.misses + 1;
          None
      | Corrupt ->
          t.corrupt <- t.corrupt + 1;
          None
      | Version_mismatch ->
          t.version_mismatch <- t.version_mismatch + 1;
          None)

(* ---- save ------------------------------------------------------------ *)

let rec ensure_dir path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    ensure_dir (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save t ~key ~payload =
  let final = entry_path t ~key in
  let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
  let ok =
    try
      ensure_dir t.dir;
      Out_channel.with_open_bin tmp (fun oc ->
          Printf.fprintf oc "%s\n%s\n%d %d\n%s\n" magic t.version
            (String.length key) (String.length payload)
            (Digest.to_hex (Digest.string payload));
          Out_channel.output_string oc key;
          Out_channel.output_string oc payload);
      Unix.rename tmp final;
      true
    with Sys_error _ | Unix.Unix_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false
  in
  locked t (fun () ->
      if ok then t.writes <- t.writes + 1
      else t.write_errors <- t.write_errors + 1);
  ok

(* ---- telemetry ------------------------------------------------------- *)

let reclassify_corrupt t =
  locked t (fun () ->
      if t.hits > 0 then begin
        t.hits <- t.hits - 1;
        t.corrupt <- t.corrupt + 1
      end)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        corrupt = t.corrupt;
        version_mismatch = t.version_mismatch;
        writes = t.writes;
        write_errors = t.write_errors;
      })
