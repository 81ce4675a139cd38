(** Sparse throughput oracle.

    Computes exactly the same value as {!Throughput.inverse} — the
    bottleneck-set optimum [max over ∅≠Q⊆P of mass(Q)/|Q|] — from the
    experiment's distinct non-empty µop port masks and their masses alone.
    By the bottleneck-set theorem (§2.2) the optimum is attained at a union
    of those masks, so with k masks over their union U a query enumerates
    the unions of subsets of the masks in O(2^k), or the submasks of U in
    O(2^|U|·k) when k > |U|, independent of the port count.  Queries read
    the rows {!Mapping.set} compiled ({!Mapping.row}) into a scratch
    profile of their own and cache nothing, so one oracle can be shared
    across domains as is.

    All results are exact and agree with {!Throughput} up to
    {!Pmi_numeric.Rat.equal} (property-tested in [test/test_oracle.ml]).
    The [_frac] queries return the value as a native [(num, den)] pair,
    [den > 0], for hot loops that compare fractions without building a
    {!Pmi_numeric.Rat.t}; the port bound is [(mass q*, |q*|)] unreduced,
    q* the smallest maximising mask. *)

type t

val create : Mapping.t -> t
(** An oracle for the mapping, in O(1).  The mapping is captured by
    reference and must not be mutated afterwards. *)

val num_ports : t -> int

val prepare : t -> Pmi_isa.Scheme.t list -> unit
(** Check that the mapping maps every given scheme.
    @raise Throughput.Unsupported if it does not map one of them. *)

val inverse : t -> Experiment.t -> Pmi_numeric.Rat.t
(** [tp⁻¹(e)], exactly as {!Throughput.inverse}.
    @raise Throughput.Unsupported *)

val inverse_bounded : r_max:int -> t -> Experiment.t -> Pmi_numeric.Rat.t
(** As {!Throughput.inverse_bounded}: the oracle value capped below by the
    §3.4 frontend bound [|e| / r_max].  @raise Throughput.Unsupported *)

val inverse_bounded_frac : r_max:int -> t -> Experiment.t -> int * int
(** {!inverse_bounded} as a native [(num, den)] pair.
    @raise Throughput.Unsupported *)

val masses_frac : int array -> int array -> int * int
(** [masses_frac masks masses]: the bottleneck optimum
    [max over ∅≠Q of mass(Q)/|Q|] of a mass profile given directly, as
    parallel arrays of port masks ({!Portset.to_mask}) and their
    non-negative µop masses, by the same kernel as every other query.  A
    native [(num, den)] pair, [(0, 1)] for empty arrays.  This is the entry
    point for callers that build their own profile (the simulated machine,
    whose quirks add phantom masses no mapping row has).
    @raise Invalid_argument when the arrays differ in length. *)

val bottleneck_set : t -> Experiment.t -> Portset.t
(** The smallest mask (as an integer) attaining the optimum; empty for an
    empty experiment. *)

(** Incremental experiment accumulator: the mass profile of a working
    experiment, updated by ±one scheme at a time.  This is the inner loop
    of the stratified distinguishing-experiment search: moving to a
    neighbouring multiset costs one profile update, and each throughput
    query runs the sparse kernel on the standing profile. *)
module Acc : sig
  type oracle := t
  type t

  val create : oracle -> t
  (** An empty accumulator (the empty experiment). *)

  val add : t -> Pmi_isa.Scheme.t -> int -> unit
  (** Add [count] copies of the scheme.  @raise Throughput.Unsupported *)

  val remove : t -> Pmi_isa.Scheme.t -> int -> unit
  (** Remove [count] copies previously added.  A mask whose mass reaches
      zero leaves the profile.
      @raise Invalid_argument ["Oracle.Acc.remove"] on a negative count or
      when the removal would take the length or any mask's mass below zero;
      the accumulator is then unchanged.
      @raise Throughput.Unsupported *)

  val add_row : t -> Mapping.row -> int -> unit
  (** {!add} of a row resolved by the caller, so a walk that adds the same
      scheme many times looks it up once.  The row need not come from the
      accumulator's own mapping.
      @raise Invalid_argument ["Oracle.Acc.add_row"] on a negative count. *)

  val remove_row : t -> Mapping.row -> int -> unit
  (** {!remove} of a row resolved by the caller, with the same checks.
      @raise Invalid_argument ["Oracle.Acc.remove_row"] where {!remove}
      raises ["Oracle.Acc.remove"]; the accumulator is then unchanged. *)

  val length : t -> int
  (** Instruction count of the current experiment. *)

  val distinct_masks : t -> int
  (** Distinct port masks with positive mass in the current experiment:
      the k the kernel enumerates over. *)

  val reset : t -> unit

  val inverse : t -> Pmi_numeric.Rat.t
  val inverse_bounded : r_max:int -> t -> Pmi_numeric.Rat.t

  val inverse_bounded_frac : r_max:int -> t -> int * int
  (** {!inverse_bounded} as a native [(num, den)] pair. *)
end
