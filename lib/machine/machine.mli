(** The simulated AMD Zen+ processor.

    This module stands in for the Ryzen 5 2600X testbed of the paper's case
    study (§4).  It exposes exactly the two observables the inference
    algorithm is allowed to use — steady-state cycle measurements and the
    "Retired Uops" (in truth: retired {e macro-ops}, §4.1.1) counter — and
    reproduces the documented deviations from the pure port-mapping model:

    - the 5-IPC frontend/retirement bottleneck (§3.4, §3.5),
    - macro-op fusion of memory µops (§4.1.1),
    - µop-less nops and eliminated movs (§4.1.2),
    - non-pipelined FP dividers (§4.1.2),
    - unreliable 64-bit-immediate movs and AH/DH operands (§4.1.2),
    - unstable pairing behaviour of cmov/AES/vcvt/mulpd (§4.2),
    - fma-style third-port data-line occupation (§4.2),
    - the imul throughput anomaly (§4.3),
    - vpmuldq-style sub-model slowdowns (§4.3),
    - vmovd-style inconsistent conflicts (§4.3),
    - microcode-sequencer stalls at 4 ops/cycle (§4.4), and
    - unstable variable vector shifts (§4.4). *)

type config = {
  seed : int;
  noise_amplitude : float;       (** relative jitter of stable measurements *)
  unstable_amplitude : float;    (** jitter of unstable-pairing schemes *)
  unreliable_amplitude : float;  (** jitter of inherently unreliable schemes *)
}

val default_config : config
val quiet_config : config
(** Zero noise everywhere; useful for algorithm unit tests. *)

type t

val create : ?config:config -> ?profile:Profile.t -> Pmi_isa.Catalog.t -> t
(** [profile] defaults to {!Profile.zen_plus}.
    @raise Invalid_argument when the profile fails {!Profile.validate}. *)

val catalog : t -> Pmi_isa.Catalog.t
val config : t -> config
val profile : t -> Profile.t

val ground_truth : t -> Pmi_portmap.Mapping.t
(** The hidden mapping (base usage, no quirk effects) the inference tries to
    reconstruct.  Only tests and evaluation code may look at this. *)

val r_max : t -> int
val num_ports : t -> int

val true_inverse : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t
(** Noise-free inverse throughput including all quirk effects: the
    bottleneck optimum of the quirk-adjusted µop masses (added row by row
    to a {!Pmi_portmap.Oracle.Acc}), capped below by the frontend bound
    [|e| / r_max], plus the microcode-sequencer stall.  Each scheme's
    quirk-adjusted rows are compiled once, on its first use; the
    experiment's profile is assembled afresh on every call, and repeated
    measurements are the harness's cache's job. *)

val samples : t -> reps:int -> Pmi_portmap.Experiment.t -> float array
(** [reps] noisy steady-state measurements of cycles per experiment
    iteration: element [rep] is repetition [rep]'s sample, the noise-free
    value jittered by {!Noise.jitter}[ ~rep].  The noise-free value, the
    noise amplitude and the noise key are computed once for all
    repetitions.  @raise Invalid_argument on a negative [reps]. *)

val retired_ops : t -> Pmi_portmap.Experiment.t -> int
(** The PMCx0C1 "Retired Uops" counter reading for one iteration: it counts
    macro-ops, not µops (§4.1.1). *)

val measurement_count : t -> int
(** Number of samples taken so far: the sum of [reps] over {!samples}
    calls (benchmarking statistics). *)

(** {2 Intel-style counters}

    AMD's Zen family lacks per-port µop counters — that is the paper's whole
    point — but Intel designs have them, and the uops.info reference
    algorithm needs them.  These accessors simulate such a design so that
    the counter-free algorithm can be validated against the original
    (test suites and the ablation benchmarks use them; the inference
    pipeline itself never does). *)

val true_uop_count : t -> Pmi_portmap.Experiment.t -> int
(** An exact µop counter (what Intel's UOPS_EXECUTED reports). *)

val port_uops : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t array
(** µops executed per port and iteration in one optimal steady-state
    distribution — per-port counters à la Intel's UOPS_DISPATCHED.PORT_n
    (quirk-free, as on the microarchitectures where these counters exist). *)
