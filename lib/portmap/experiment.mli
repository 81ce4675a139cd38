(** Experiments: dependency-free instruction sequences, as multisets.

    The port-mapping model is insensitive to instruction order (§3.3.1), so
    an experiment is a multiset of instruction schemes.  The canonical form
    is a list of (scheme, count) pairs sorted by scheme id with positive
    counts, so structural traversal order is deterministic. *)

type t = private (Pmi_isa.Scheme.t * int) list

val empty : t
val singleton : Pmi_isa.Scheme.t -> t
val replicate : int -> Pmi_isa.Scheme.t -> t

val of_list : Pmi_isa.Scheme.t list -> t
val of_counts : (Pmi_isa.Scheme.t * int) list -> t
(** Merges duplicate schemes; drops non-positive counts. *)

val add : ?count:int -> Pmi_isa.Scheme.t -> t -> t
val union : t -> t -> t

val count : t -> Pmi_isa.Scheme.t -> int
val length : t -> int
(** Total number of instructions, counting multiplicity. *)

val distinct : t -> int
val is_empty : t -> bool
val to_counts : t -> (Pmi_isa.Scheme.t * int) list
val schemes : t -> Pmi_isa.Scheme.t list
(** Distinct schemes, ascending id. *)

val fold : (Pmi_isa.Scheme.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (Pmi_isa.Scheme.t -> int -> bool) -> t -> bool
val exists : (Pmi_isa.Scheme.t -> int -> bool) -> t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val key : t -> (int * int) list
(** Canonical structural cache key: [(scheme id, count)] pairs in the
    multiset's sorted order.  Equal experiments have equal keys; no string
    rendering or [Buffer] allocation involved. *)

val to_string : t -> string
(** e.g. ["[4 x add <GPR[32]>, <GPR[32]>; 1 x imul ...]"]. *)

val pp : Format.formatter -> t -> unit
