(** nanoBench-style measurement harness (§4).

    Every experiment is run 11 times on the simulated machine (the paper's
    median-of-11); the harness reports the median inverse throughput
    (quantised to millicycles, as a real measurement report would be), the
    observed CPI spread across repetitions, and the retired-ops counter.
    Results are memoised: repeated queries for the same experiment do not
    re-run the benchmark, mirroring the experiment cache of the paper's
    artifact.

    A harness is safe to share across domains: the probe/measure/insert
    sequence runs under a harness-wide lock (a {!Pmi_diag.Race.with_lock}
    mutex, so the concurrency sanitizer sees the edge; the sanitizer
    tracks the cache as one location, read on a probe and written on an
    insert) and the hit/miss counters are atomics.  Telemetry counts the
    cache's answers under [harness.cache.mem.{hit,miss}].

    Measurements live for the process only: every run measures what it
    asks for afresh, which is what the paper's Algorithm 2 assumes. *)

type sample = {
  ticks : int;
  (** The median inverse throughput quantised onto the {!precision}
      grid: [round (median · precision)], so the sample stands
      for [ticks / precision] cycles per iteration.  It is kept as a
      native int; {!sample_cycles} builds the exact rational. *)
  spread_cpi : float;           (** (max - min) / |e| across repetitions *)
  retired_ops : int;            (** macro-op counter reading *)
}

type t

val create : Pmi_machine.Machine.t -> t

val machine : t -> Pmi_machine.Machine.t

val precision : int
(** The denominator of the quantisation grid of every {!sample.ticks}:
    1000 (millicycles). *)

val run : t -> Pmi_portmap.Experiment.t -> sample
(** The experiment's sample, measured on a cache miss.  The cache is one
    open-addressing table keyed by the experiment's canonical
    [(scheme id, count)] pairs ({!Pmi_portmap.Experiment.key}), probed
    straight off {!Pmi_portmap.Experiment.to_counts} without building a
    key.  An entry lives in an int arena of fixed-size pages, not as a
    heap block of its own, so a hit returns a fresh record equal ([=], not
    [==]) to the one the miss returned.
    @raise Invalid_argument on a miss for an experiment of more than
    32,765 distinct schemes, whose entry would not fit one page. *)

val sample_cycles : sample -> Pmi_numeric.Rat.t
(** [ticks / precision] as an exact rational: the sample's median inverse
    throughput. *)

val cycles : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t
(** [sample_cycles (run t e)]. *)

val retired_ops : t -> Pmi_portmap.Experiment.t -> int
val benchmarks_run : t -> int
(** Distinct experiments measured so far. *)

val cache_hits : t -> int
(** Queries answered from the in-memory experiment cache. *)

val cache_misses : t -> int
(** Queries that missed the in-memory cache ([= benchmarks_run]). *)

(** ε-tolerant throughput comparisons (§3.3.4, §4). *)
module Compare : sig
  val default_epsilon : Pmi_numeric.Rat.t
  (** 0.02 cycles per instruction, the paper's choice for Zen+. *)

  val cpi_equal :
    ?epsilon:Pmi_numeric.Rat.t -> length:int ->
    Pmi_numeric.Rat.t -> Pmi_numeric.Rat.t -> bool
  (** [cpi_equal ~length t1 t2]: are two inverse-throughput values of an
      experiment with [length] instructions equal up to [ε·length]? *)

  val well_separated :
    ?epsilon:Pmi_numeric.Rat.t -> length:int ->
    Pmi_numeric.Rat.t -> Pmi_numeric.Rat.t -> bool
  (** The 2ε separation required of distinguishing experiments: no observed
      value can be ε-equal to both [t1] and [t2]. *)

  type tolerance
  (** An ε prepared for the native-int tests: its parts and their overflow
      bounds are worked out once, not on every comparison. *)

  val tolerance : Pmi_numeric.Rat.t -> tolerance

  val cpi_equal_frac :
    ?tolerance:tolerance -> length:int -> int * int -> int * int -> bool
  (** {!cpi_equal} on fractions given as native [(num, den)] pairs with
      non-zero denominators, under the given ε (default
      {!default_epsilon}).  Decided by cross-multiplying on native ints,
      without building a {!Pmi_numeric.Rat.t}, whenever no product can
      overflow; otherwise on {!Pmi_numeric.Rat}.  The verdict is always
      {!cpi_equal}'s. *)

  val well_separated_frac :
    ?tolerance:tolerance -> length:int -> int * int -> int * int -> bool
  (** {!well_separated} on native pairs, as {!cpi_equal_frac}. *)
end
