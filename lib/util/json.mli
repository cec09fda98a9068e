(** Minimal JSON support shared by every hand-rolled emitter.

    The code base prints its machine-readable reports with [Printf]
    rather than a JSON library; that is fine until a [nan] or [inf]
    reaches a number position ([%.17g] renders them as ["nan"], which no
    strict parser accepts).  {!float_lit} is the single float-emission
    helper: finite values render with full [%.17g] round-trip precision,
    non-finite values render as [null].  {!escape}/{!quote} are the
    matching string helpers.

    {!parse} is a strict RFC 8259 recursive-descent parser — no [NaN] /
    [Infinity] literals, no trailing commas, no garbage after the
    top-level value.  [\uXXXX] escapes cover the full Unicode range:
    astral-plane characters arrive as UTF-16 surrogate pairs and are
    decoded to the combined scalar; a lone or mismatched surrogate is a
    {!Parse_error}.  Container nesting is bounded ([?max_depth],
    default {!default_max_depth}) so hostile input fails with
    {!Parse_error} instead of [Stack_overflow] — the daemon feeds this
    parser raw bytes off a socket.  Tests use it to pin that every
    [--json] output path (including degraded and fault-injected
    compiles) stays valid JSON. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

val escape : string -> string
(** Backslash-escape a string body per RFC 8259 (quotes, backslash,
    control characters). *)

val quote : string -> string
(** [escape] wrapped in double quotes — a complete JSON string token. *)

val float_lit : float -> string
(** A JSON number token with [%.17g] precision — the text
    [Printf.sprintf "%.17g"] gives — or [null] when the value is [nan]
    or [±inf]. *)

val emit : value -> string
(** Serialize a {!value} to a compact RFC 8259 text.  Inverse of
    {!parse} up to the non-finite-number policy: [parse (emit v)]
    returns [v] with every [nan]/[±inf] [Number] mapped to [Null]
    (JSON has no token for them; see {!float_lit}). *)

exception Parse_error of string

val default_max_depth : int
(** Container-nesting bound applied when [?max_depth] is omitted
    (512). *)

val parse : ?max_depth:int -> string -> (value, string) result

val parse_exn : ?max_depth:int -> string -> value
(** Raises {!Parse_error} with an offset-annotated message.
    [max_depth] bounds container nesting: input nested deeper than
    [max_depth] arrays/objects fails cleanly instead of overflowing the
    stack.  Raises [Invalid_argument] if [max_depth < 1]. *)

val member : string -> value -> value option
(** Field lookup on an [Object]; [None] on other constructors. *)

val member_exn : string -> value -> value
(** Raises {!Parse_error} when the field is absent. *)
