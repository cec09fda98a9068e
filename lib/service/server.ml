module J = Qturbo_util.Json
module D = Qturbo_analysis.Diagnostic
module Failure_r = Qturbo_resilience.Failure

let src = Logs.Src.create "qturbo.service" ~doc:"qturbo serve daemon"

module Log = (val Logs.src_log src)

type config = {
  socket_path : string;
  max_request_bytes : int;
  deadline_cap : float option;
  max_requests : int option;
  read_timeout : float;
}

let default_config ~socket_path =
  {
    socket_path;
    max_request_bytes = 1 lsl 20;
    deadline_cap = None;
    max_requests = None;
    read_timeout = 30.0;
  }

(* ---- responses -------------------------------------------------------- *)

(* [extra] fields are pre-rendered JSON (diagnostics, failure records). *)
let error_json ~kind ~message ?(extra = []) () =
  Printf.sprintf {|{"ok":false,"error":{"kind":%s,"message":%s%s}}|}
    (J.quote kind) (J.quote message)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ",%s:%s" (J.quote k) v) extra))

let ok_json payload = {|{"ok":true,"result":|} ^ payload ^ "}"

let stats_json ~requests ~started =
  Printf.sprintf
    {|{"requests":%d,"uptime_seconds":%s,"plan_cache":%s,"plan_store":%s,"instances":%s}|}
    requests
    (J.float_lit (Qturbo_util.Clock.now () -. started))
    (Ops.plan_cache_json ()) (Ops.plan_store_json ())
    (Ops.instance_cache_json ())

(* The same failure taxonomy the CLI maps to exit codes, as typed error
   responses: a request can fail, the daemon does not. *)
let guarded f =
  match f () with
  | payload -> ok_json payload
  | exception (Failure msg | Invalid_argument msg) ->
      error_json ~kind:"user" ~message:msg ()
  | exception D.Rejected ds ->
      error_json ~kind:"rejected"
        ~message:"input rejected by the pre-solve analyzer"
        ~extra:[ ("diagnostics", D.list_to_json ds) ]
        ()
  | exception Failure_r.Failed fs ->
      error_json ~kind:"failed"
        ~message:
          (Printf.sprintf
             "compilation failed: %d classified failure record(s); retry \
              with best_effort for a degraded result"
             (List.length fs))
        ~extra:[ ("failures", Failure_r.list_to_json fs) ]
        ()
  | exception exn ->
      error_json ~kind:"internal" ~message:(Printexc.to_string exn) ()

let handle_request ?deadline_cap ~requests ~started line =
  match Protocol.parse_line line with
  | Error msg -> (error_json ~kind:"parse" ~message:msg (), true)
  | Ok req -> (
      Log.debug (fun m -> m "request: %s" (Protocol.op_name req));
      match req with
      | Protocol.Ping -> (ok_json {|"pong"|}, true)
      | Protocol.Shutdown -> (ok_json {|"shutting down"|}, false)
      | Protocol.Stats -> (ok_json (stats_json ~requests ~started), true)
      | Protocol.Compile c ->
          (guarded (fun () -> Ops.handle_compile c ~deadline_cap), true)
      | Protocol.Check j -> (guarded (fun () -> Ops.handle_check j), true)
      | Protocol.Lint j -> (guarded (fun () -> Ops.handle_lint j), true)
      | Protocol.Sweep s -> (guarded (fun () -> Ops.handle_sweep s), true))

(* ---- socket plumbing -------------------------------------------------- *)

(* A crashed daemon leaves its socket file behind; a live one answers a
   probe connect.  Only the former may be cleaned up and reused. *)
let prepare_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      failwith ("qturbo serve: a daemon is already listening on " ^ path);
    try Sys.remove path with Sys_error _ -> ()
  end

exception Line_too_long
exception Timed_out

(* When [timeout] (seconds, positive) runs out, counted from now; [None]
   never does. *)
let deadline_of timeout =
  if timeout > 0.0 then Some (Qturbo_util.Clock.now () +. timeout) else None

let time_left = function
  | None -> -1.0 (* [Unix.select]: block *)
  | Some d ->
      let left = d -. Qturbo_util.Clock.now () in
      if left <= 0.0 then raise Timed_out else left

(* A connection's bytes, read through one buffer so that pipelined
   request lines survive between calls. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 4096; pos = 0; len = 0 }

(* One newline-terminated request, bounded in bytes and in time: a
   hostile client can neither buffer the daemon into the ground nor
   hold it by trickling bytes, since the whole line must arrive within
   [timeout] of the daemon starting to wait for it.  None = clean EOF. *)
let read_line_bounded r ~max_bytes ~timeout =
  let deadline = deadline_of timeout in
  let line = Buffer.create 256 in
  let rec refill () =
    match Unix.select [ r.fd ] [] [] (time_left deadline) with
    | [], _, _ -> raise Timed_out
    | _ ->
        r.pos <- 0;
        r.len <- Unix.read r.fd r.buf 0 (Bytes.length r.buf)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
  in
  let rec go () =
    if r.pos >= r.len then refill ();
    if r.len = 0 then
      if Buffer.length line = 0 then None else Some (Buffer.contents line)
    else begin
      let c = Bytes.get r.buf r.pos in
      r.pos <- r.pos + 1;
      if c = '\n' then Some (Buffer.contents line)
      else begin
        if Buffer.length line >= max_bytes then raise Line_too_long;
        Buffer.add_char line c;
        go ()
      end
    end
  in
  go ()

(* One response line, within [timeout] as a whole.  [SO_SNDTIMEO] bounds
   each blocking write, so a client that stops reading fails the write
   (EAGAIN) once the socket buffer is full instead of stalling the
   daemon. *)
let write_line fd s ~timeout =
  let deadline = deadline_of timeout in
  let s = s ^ "\n" in
  let rec go off =
    if off < String.length s then begin
      ignore (time_left deadline : float);
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let serve config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  prepare_path config.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock 16;
  Log.info (fun m -> m "serving on %s" config.socket_path);
  let started = Qturbo_util.Clock.now () in
  let requests = ref 0 in
  let keep_serving = ref true in
  let budget_left () =
    match config.max_requests with None -> true | Some k -> !requests < k
  in
  while !keep_serving && budget_left () do
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
        (* connections are served one at a time, so a client that goes
           quiet, trickles its request or stops reading its responses
           would block everyone behind it: a request line must arrive
           whole, and each response leave, within the read deadline, or
           the connection is dropped uncounted *)
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO config.read_timeout
         with Unix.Unix_error _ -> ());
        let r = reader fd in
        let send line = write_line fd line ~timeout:config.read_timeout in
        (try
           (* serve request lines until the client hangs up *)
           let rec connection () =
             if !keep_serving && budget_left () then
               match
                 read_line_bounded r ~max_bytes:config.max_request_bytes
                   ~timeout:config.read_timeout
               with
               | None -> ()
               | Some line ->
                   incr requests;
                   let resp, keep =
                     handle_request ?deadline_cap:config.deadline_cap
                       ~requests:!requests ~started line
                   in
                   if not keep then keep_serving := false;
                   send resp;
                   connection ()
           in
           connection ()
         with
        | Line_too_long -> (
            incr requests;
            try
              send
                (error_json ~kind:"parse"
                   ~message:
                     (Printf.sprintf "request exceeds %d bytes"
                        config.max_request_bytes)
                   ())
            with Timed_out | Unix.Unix_error _ -> ())
        | Timed_out | Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  try Sys.remove config.socket_path with Sys_error _ -> ()
