(** The Figure 5 evaluation: IPC prediction accuracy of the inferred port
    mapping against the PMEvo and Palmed baselines.

    Following §4.5: random five-instruction dependency-free basic blocks
    over a SPEC-like subset of the schemes covered by the inferred mapping
    are benchmarked on the (simulated) hardware; each model predicts the
    blocks' IPC; accuracy is summarised as MAPE / Pearson / Kendall τ and
    as predicted-vs-measured heatmaps.

    Prediction conventions match the paper: our model solves the §2.2 LP
    and caps the result at the 5-IPC frontend; PMEvo's predictions are
    deliberately {e not} adjusted for the IPC bottleneck (footnote 10);
    Palmed's resource model contains a frontend resource natively. *)

type options = {
  scheme_subset : int;    (** paper: 577 *)
  block_count : int;      (** paper: 5,000 *)
  block_size : int;       (** paper: 5 *)
  seed : int;
  pmevo : Pmi_baselines.Pmevo.config;
  palmed : Pmi_baselines.Palmed.config;
}

val default_options : options
val quick_options : options
(** Reduced sizes for tests and smoke runs. *)

type model_result = {
  model : string;
  pairs : (float * float) list;   (** (predicted, measured) IPC per block *)
  summary : Metrics.summary;
}

type t = {
  schemes_used : int;
  blocks_used : int;
  ours : model_result;
  pmevo : model_result;
  palmed : model_result;
}

val run :
  ?options:options ->
  Pmi_measure.Harness.t ->
  mapping:Pmi_portmap.Mapping.t ->
  t
(** Evaluate against the harness's machine; [mapping] is the pipeline's
    final inferred mapping.  Model predictions go through the sparse
    {!Pmi_portmap.Oracle}, PMEvo's training fitness included. *)

val pp : Format.formatter -> t -> unit
(** The Figure 5(a) table plus the three heatmaps. *)
