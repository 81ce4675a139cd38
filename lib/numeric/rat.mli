(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    numerator/denominator are coprime, so structural equality coincides with
    numeric equality. *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool
val is_integer : t -> bool

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val to_float : t -> float
(** The quotient as a float: [float n /. float d] when both parts fit a
    native int, otherwise computed from the leading decimal digits of
    each part, so huge parts never overflow to NaN. *)

val to_string : t -> string
(** ["n"] for integers, ["n/d"] otherwise. *)

val pp : Format.formatter -> t -> unit

(** Infix operators, intended for local [open Rat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
