(** Domain lint pass over port mappings, machine profiles, and catalogs.

    Every check produces machine-readable diagnostics instead of raising:
    [Error] marks data that breaks the inference pipeline's assumptions
    (empty port sets, out-of-range ports, §3.4 throughput-gap violations,
    colliding experiment cache keys), [Warning] marks suspicious but legal
    data (unreachable ports, duplicate port sets that should carry a
    multiplicity, µop counts that disagree with the simulated ground
    truth).  The [lint] subcommand of [pmi_repro] and the [@lint] dune test
    are thin drivers over this module. *)

type severity = Pmi_diag.Diag.severity =
  | Error
  | Warning

type diag = Pmi_diag.Diag.t = {
  rule : string;      (** stable kebab-case rule name, e.g. ["empty-port-set"] *)
  severity : severity;
  subject : string;   (** what was linted, e.g. ["profile zen+"] *)
  message : string;
}
(** Equal to {!Pmi_diag.Diag.t}: the lint pass and the race sanitizer share
    one diagnostic type, renderer and JSON schema. *)

val severity_to_string : severity -> string

val to_string : diag -> string
(** Human-readable one-liner: [severity[rule] subject: message]. *)

val to_json : diag -> string
(** One-line JSON object with [rule], [severity], [subject], [message]. *)

val errors : diag list -> diag list
(** The [Error]-severity subset. *)

val lint_usage :
  num_ports:int ->
  subject:string ->
  (Pmi_portmap.Portset.t * int) list ->
  diag list
(** Lint a raw (un-normalized) usage entry: empty port sets, out-of-range
    ports, non-positive multiplicities, duplicate port sets. *)

val lint_mapping :
  ?reference:Pmi_portmap.Mapping.t ->
  subject:string ->
  Pmi_portmap.Mapping.t ->
  diag list
(** Lint a whole mapping: per-scheme usage checks, unreachable ports, and —
    when [reference] is given (typically [Ground_truth.mapping_for]) — µop
    counts that disagree with the reference. *)

val lint_profile : Pmi_machine.Profile.t -> diag list
(** The conditions of [Profile.validate] as diagnostics: non-positive
    machine constants, empty/out-of-range base port sets, fma-shadow range,
    and the §3.4 gap requirement ([r_max] must exceed the widest µop). *)

val lint_catalog : Pmi_isa.Catalog.t -> diag list
(** Catalog structure: duplicate scheme names (they break the [Mapping_io]
    resolver), scheme ids inconsistent with catalog order, empty buckets,
    and structural [Experiment.key] collisions over all singleton
    experiments plus pairs of the first 40 schemes. *)

val builtin : ?catalog:Pmi_isa.Catalog.t -> unit -> diag list
(** Lint everything the repo ships: all machine profiles, the given catalog
    (default: the full Zen+ catalog), and each profile's simulated ground
    truth mapping (checked against itself as reference, exercising the
    µop-count rule). *)
