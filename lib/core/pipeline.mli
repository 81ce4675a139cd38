(** The end-to-end Zen+ case study (§4).

    Stages:
    + benchmark every scheme individually and classify it (§4.1);
    + filter blocking-instruction candidates into equivalence classes,
      dropping unstable and contradictory schemes and excluding every
      scheme that shares a mnemonic with a dropped one (§4.2);
    + add the improper store blockers and infer the blocking-instruction
      port mapping with the counter-example-guided algorithm.  When the
      observations admit no mapping, remove every culprit class (the
      imul / vpmuldq / vmovd anomalies of §4.3) and infer again from
      scratch; all schemes sharing a culprit's mnemonic are excluded.  A
      scheme is a culprit when both hold: removing it, with every
      observation naming it, lets some mapping explain the rest; and its
      pair probes against the kernels of the other classes admit no
      mapping, with a single clashing partner attributed by the mirrored
      probe;
    + rename ports against the documented layout (Table 2);
    + characterise every remaining scheme against the blocking suite with
      the adapted Algorithm 1 (§4.4) and assemble the final port mapping. *)

(** Per-scheme verdict (indexed by scheme id in the result). *)
type verdict =
  | Excluded_individual of Blocking.individual
  (** dropped in stage 1 ([Unreliable], [Zero_uop] or [Outside_model]) *)
  | Excluded_pairing
  (** dropped in stage 2, or shares a mnemonic with a dropped candidate *)
  | Excluded_mnemonic
  (** shares a mnemonic with a §4.3 culprit blocking class *)
  | Blocking_class of Pmi_isa.Scheme.t
  (** blocking candidate; the payload is its class representative *)
  | Characterized of { usage : Pmi_portmap.Mapping.usage; spurious : bool }
  | Unstable_result of Port_usage.failure

type funnel = {
  total : int;
  excluded_individual : int;
  after_stage1 : int;            (** the paper's 2,323 *)
  candidates_initial : int;      (** the paper's 691 *)
  excluded_pairing : int;
  after_stage2 : int;            (** the paper's 1,887 *)
  candidates_final : int;        (** the paper's 563 *)
  blocking_classes : int;        (** the paper's 13 *)
  excluded_mnemonic : int;       (** the paper's 68 *)
  considered : int;              (** the paper's 1,819 *)
  regular_pattern : int;         (** the paper's ~70 % *)
  spurious_ms : int;             (** the paper's ~8 % *)
  unstable : int;                (** the paper's ~7 % *)
  inferred : int;                (** the paper's 1,700 *)
}

type t = {
  catalog : Pmi_isa.Catalog.t;
  verdicts : verdict array;
  filtering : Blocking.filtering;
  removed_classes : Blocking.klass list;     (** §4.3 culprits *)
  blocker_mapping : Pmi_portmap.Mapping.t;   (** CEGIS result, renamed *)
  alignment : Relabel.alignment option;
  improper : Pmi_isa.Scheme.t list;          (** store blockers used *)
  blockers : Port_usage.blocker list;        (** the Algorithm-1 suite:
                                                 class representatives plus
                                                 the store blocker, with
                                                 renamed ports *)
  cegis_stats : Cegis.stats;                 (** the final CEGIS round *)
  mapping : Pmi_portmap.Mapping.t;           (** the full final mapping *)
  funnel : funnel;
}

val run :
  ?certify:bool -> ?store:Pmi_store.Store.t -> Pmi_measure.Harness.t -> t
(** Run the whole study on the harness's machine.  The port count and the
    frontend width [r_max] (§3.4) are the machine's; blocking candidates
    may use up to [r_max - 1] ports.  [certify] and [store] are
    {!Cegis.config}'s trust-but-verify switches (default off, no store).
    Improper store blockers are located in the catalog by shape (a storing
    [mov m32] and a storing 128-bit vector move); when absent (reduced
    test catalogs), the store port is simply not blocked. *)

val verdict : t -> Pmi_isa.Scheme.t -> verdict

val pp_funnel : Format.formatter -> funnel -> unit
