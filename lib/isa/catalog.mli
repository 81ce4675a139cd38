(** The simulated Zen+ instruction-scheme catalog.

    The case study of the paper starts from 2,980 x86-64 instruction schemes
    taken from uops.info (control flow, system instructions and
    input-dependent instructions already removed).  This module generates a
    catalog with the same size and internal structure: every scheme belongs
    to a named {e bucket} whose size mirrors the corresponding population of
    the paper's funnel (§4.1-§4.4, Table 1).

    Buckets are filled from pools of realistic mnemonic/operand combinations;
    when a pool is smaller than the bucket's historical population, the pool
    is cycled with encoding-variant tags (uops.info likewise distinguishes
    many encodings of one mnemonic).  Bucket sizes are therefore exact by
    construction and asserted in the test suite. *)

type t

val zen_plus : unit -> t
(** The full 2,980-scheme catalog. *)

val reduced : ?seed:int -> per_bucket:int -> unit -> t
(** A small catalog with at most [per_bucket] schemes per bucket, preserving
    the bucket structure.  Used by tests and fast examples.  The [seed]
    selects which pool members survive. *)

val of_list : (string * Operand.t list * Iclass.t) list -> t
(** An ad-hoc catalog for unit tests; bucket name is ["custom"]. *)

val size : t -> int
val schemes : t -> Scheme.t array
val find : t -> int -> Scheme.t

val bucket_names : t -> string list
val bucket : t -> string -> Scheme.t list
(** @raise Not_found for an unknown bucket name. *)

val bucket_of : t -> Scheme.t -> string
