(** Port mappings: the tripartite graph of the formal model (§2.2).

    Because a µop kind is fully described by its admissible port set, a
    mapping assigns every instruction scheme a multiset of port sets — the
    [F] edges carry the multiplicities, the [E] edges are the port sets
    themselves. *)

type usage = (Portset.t * int) list
(** µop kinds with multiplicities; canonical form merges equal port sets,
    keeps positive counts and sorts by port set. *)

type t

val create : num_ports:int -> t
val num_ports : t -> int

val set : t -> Pmi_isa.Scheme.t -> usage -> unit
(** Define (or replace) the port usage of a scheme, as
    {!normalize_usage} leaves it: µops with a non-positive multiplicity
    are dropped.
    @raise Invalid_argument if a kept port set is empty or mentions a port
    [>= num_ports]. *)

type row = private {
  scheme : Pmi_isa.Scheme.t; masks : int array; counts : int array }
(** A scheme's entry: its usage as {!set} stores it, the one copy, in two
    parallel arrays of port masks ({!Portset.to_mask}) and multiplicities,
    in {!normalize_usage}'s order.  {!Oracle} reads the arrays; {!usage}
    and {!find_opt} decode them into a fresh list.  Never mutate them. *)

val row : t -> Pmi_isa.Scheme.t -> row
(** @raise Not_found if the scheme has no entry. *)

val find_opt : t -> Pmi_isa.Scheme.t -> usage option
val usage : t -> Pmi_isa.Scheme.t -> usage
(** @raise Not_found if the scheme has no entry. *)

val supports : t -> Pmi_isa.Scheme.t -> bool
val schemes : t -> Pmi_isa.Scheme.t list
(** Schemes with an entry, ascending id. *)

val size : t -> int
val uop_count : t -> Pmi_isa.Scheme.t -> int
(** Total µops of the scheme, counting multiplicity; 0 if unmapped. *)

val copy : t -> t

val ports_used : t -> Portset.t
(** Union of every port set mentioned by any scheme; ports outside it are
    unreachable under this mapping. *)

val normalize_usage : usage -> usage

val usage_to_string : usage -> string
(** e.g. ["2 x [0,1] + 1 x [2]"], or ["(none)"] for an empty usage. *)

val equal_usage : usage -> usage -> bool

val pp : Format.formatter -> t -> unit
(** One line per scheme. *)
