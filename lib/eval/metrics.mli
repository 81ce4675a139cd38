(** Prediction-accuracy metrics of Figure 5(a).

    All three metrics are computed over paired (predicted, measured) series:
    mean absolute percentage error, Pearson's linear correlation
    coefficient, and Kendall's rank correlation τ (the τ-a variant on
    strict concordance, matching the paper's use of ranking quality). *)

val mape : (float * float) list -> float
(** [mape pairs] with pairs of (predicted, measured); measured values of 0
    are skipped.  Result in percent. *)

val pearson : (float * float) list -> float
(** In [-1, 1]; 0 for degenerate (constant) series. *)

val kendall_tau : (float * float) list -> float
(** O(n²) exact computation; ties count as discordance-neutral. *)

type summary = { mape : float; pearson : float; kendall : float }

val summarize : (float * float) list -> summary
