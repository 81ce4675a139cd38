(** ASCII heatmaps of predicted vs measured IPC (Figure 5(b-d)).

    Basic blocks are bucketed on both axes; darker glyphs mean more blocks.
    The diagonal (perfect prediction) is marked so the eye can compare
    models the way the paper's orange line does. *)

type t

val make : (float * float) list -> t
(** [make pairs] from (predicted, measured) IPC pairs, in ten 0.5-IPC bins
    per axis from 0 to 5.  The predicted axis extends beyond 5 if a model
    overshoots (as PMEvo does in the paper). *)

val render : t -> string
val pp : Format.formatter -> t -> unit
