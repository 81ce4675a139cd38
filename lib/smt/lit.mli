(** Propositional literals.

    A variable is a non-negative integer; a literal packs a variable and a
    polarity into a single integer ([2*v] positive, [2*v+1] negative), the
    classical MiniSat encoding. *)

type t = int

val make : int -> bool -> t
(** [make v positive] is the literal over variable [v]. *)

val pos : int -> t
val neg_of_var : int -> t

val var : t -> int
val negate : t -> t
val is_pos : t -> bool

val to_string : t -> string
