(** The [qturbo serve] daemon: a Unix-domain-socket compile service.

    One process holds the warm plan cache, device artifacts and
    (optionally) the persistent plan store, and answers newline-
    delimited strict-JSON requests ({!Protocol}).  Connections are
    served sequentially — determinism and bitwise-reproducibility come
    first; parallelism lives {e inside} a request (worker domains,
    batch fan-out), exactly as in the CLI.

    Failure containment mirrors the CLI's exit-code taxonomy as typed
    error responses: analyzer rejections carry the structured
    diagnostics, supervisor failures carry the classified failure
    records, user errors carry the message, and malformed bytes are a
    parse error — a request can fail, the daemon does not. *)

type config = {
  socket_path : string;
  max_request_bytes : int;
      (** per-request byte bound; longer lines get a parse-error
          response and the connection is dropped (default 1 MiB) *)
  deadline_cap : float option;
      (** upper bound (seconds) applied to every compile request's
          deadline; requests asking for more (or nothing) get this *)
  max_requests : int option;
      (** serve at most this many requests, then exit the loop —
          tests and smoke jobs use it to bound the daemon's life *)
  read_timeout : float;
      (** deadline (seconds) on every accepted connection: each request
          line must arrive whole within it of the daemon starting to
          wait for it, and each response must be written within it
          ([SO_SNDTIMEO] bounds every blocking write).  A connection
          that misses it is dropped without counting a request and the
          daemon goes back to [accept], so a client that stays silent,
          trickles bytes or never reads cannot stall the ones queued
          behind it (default 30 s; [0.0] disables it) *)
}

val default_config : socket_path:string -> config

val handle_request :
  ?deadline_cap:float -> requests:int -> started:float -> string -> string * bool
(** Handle one request line, returning the response line and whether
    the daemon should keep serving ([false] after [shutdown]).
    Exposed so tests can drive the protocol without a socket;
    [requests]/[started] only feed the [stats] payload. *)

val serve : config -> unit
(** Bind the socket and serve until [shutdown] or [max_requests].
    Removes the socket file on exit.  Raises [Failure] if another
    daemon is already listening on the path (a stale socket file left
    by a crash is cleaned up and reused). *)
