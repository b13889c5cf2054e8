(** Minimal JSON tree, printer and parser.

    Enough for JSONL heartbeats and run reports without an external
    dependency.  The printer never emits newlines inside a value, so one
    value per line is a valid JSONL record.  The parser accepts anything
    the printer emits (and standard JSON generally). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Printing} *)

val escape_to : Buffer.t -> string -> unit
(** Append [s] as a quoted, escaped JSON string. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

(** {1 Parsing} *)

exception Parse of string

val of_string : string -> (t, string) result

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on any other constructor. *)

val to_int : t -> int option
(** [Int], or a [Float] with integral value. *)

val to_float : t -> float option
(** [Float] or [Int]. *)

val to_string_opt : t -> string option
val to_list : t -> t list option
