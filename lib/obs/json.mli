(** A minimal JSON tree, parser and printer (stdlib only).

    Serves the observability stack: {!Obs} prints Chrome-trace files
    through it, the bench driver writes its [--json] reports with it, and
    {!Gate} plus the [@obs] tests parse both back.  Numbers are floats;
    [\uXXXX] escapes are decoded to UTF-8 on parse and control characters
    are escaped on print. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Strict parse of a complete document (trailing garbage is an error). *)

(** {1 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
