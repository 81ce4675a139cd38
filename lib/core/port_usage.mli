(** Port-usage characterisation of arbitrary schemes (Algorithm 1 + §3.1).

    This is the uops.info algorithm with its per-port µop counters replaced
    by the throughput-difference argument: for each blocking class, the
    instruction under investigation runs together with enough copies of the
    blocking instruction to flood the class's ports, and the slowdown over
    the flooded baseline reveals how many of its µops cannot evade those
    ports.  Previously characterised µops of proper subsets are subtracted,
    exactly as in Algorithm 1. *)

type blocker = {
  scheme : Pmi_isa.Scheme.t;        (** instruction replicated to flood *)
  ports : Pmi_portmap.Portset.t;    (** ports it blocks (after renaming) *)
}

type failure =
  | Unstable of string              (** spread beyond the threshold *)
  | Non_integral of Pmi_portmap.Portset.t * float
  (** the measured µop count on the given port set was not close to an
      integer: the scheme falls outside the port-mapping model *)

(** One flooding experiment of Algorithm 1 — the witness that justifies a
    µop-count conclusion ("a key benefit of this port mapping inference
    algorithm is that the performed microbenchmarks serve as witnesses for
    the result", §2.3). *)
type step = {
  blocker : Pmi_isa.Scheme.t;
  ports : Pmi_portmap.Portset.t;
  copies : int;                        (** the [k] of Algorithm 1 *)
  baseline : Pmi_numeric.Rat.t;        (** tp⁻¹ of the flooded ports alone *)
  combined : Pmi_numeric.Rat.t;        (** tp⁻¹ with the instruction added *)
  stuck_uops : int;                    (** µops that could not evade *)
  surplus : int;                       (** after subtracting proper subsets *)
}

type outcome =
  | Usage of {
      usage : Pmi_portmap.Mapping.usage;
      postulated : int;             (** §4.1.1 postulate for comparison *)
      spurious : bool;              (** far more µops found than counted:
                                        the microcode-sequencer signature
                                        of §4.4 *)
      witnesses : step list;        (** every flooding experiment performed,
                                        in ascending port-set order *)
    }
  | Failed of failure

val blocking_count :
  Pmi_measure.Harness.t -> port_set_size:int -> Pmi_isa.Scheme.t -> int
(** The uops.info [k] heuristic:
    [min(100, max(10, |pu|·µopsOf(i), 2·|pu|·max(1, ⌊tp⁻¹(\[i\])⌋)))]. *)

val characterize :
  Pmi_measure.Harness.t ->
  blockers:blocker list ->
  Pmi_isa.Scheme.t ->
  outcome
(** Characterise one scheme against the suite of blocking instructions
    (sorted internally by ascending port-set size). *)

val pp_witnesses :
  Format.formatter -> Pmi_isa.Scheme.t * step list -> unit
(** Render the evidence chain in the style of the paper's examples:
    which experiment was run, what it measured, and what was concluded. *)
