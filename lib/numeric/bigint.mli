(** Arbitrary-precision signed integers.

    The container is sealed (no [opam install]), so the repository vendors its
    own bignum implementation instead of depending on zarith.  Numbers are
    stored in sign-magnitude form with little-endian base-2{^15} digits, which
    keeps all intermediate products comfortably inside OCaml's native [int]
    range.  The exact-arithmetic layers ({!Rat}, {!Simplex}) sit on top of
    this module, so simplex pivoting can never overflow. *)

type t

val zero : t
val one : t

val of_int : int -> t

val to_int : t -> int
(** [to_int n] is [n] as a native integer.
    @raise Failure if [n] does not fit into an OCaml [int]. *)

val to_int_opt : t -> int option

val of_string : string -> t
(** Parses an optionally ['-']-prefixed decimal numeral.
    @raise Invalid_argument on any other input. *)

val to_string : t -> string

val sign : t -> int
(** [-1], [0] or [1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward zero and
    [r] carrying the sign of [a] (like OCaml's [(/)] and [(mod)]).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative, [gcd 0 0 = 0]. *)

val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool
val is_one : t -> bool

val pp : Format.formatter -> t -> unit
