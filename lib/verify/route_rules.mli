(** Routing rules: the {!Ccroute.Check} post-route invariants plus
    layout-level extensions (positive extent, routed top plate, valid
    parallel-wire plan). *)

(** ["route/extent"] *)
val r_extent : Diag.rule

(** ["route/top-plate"] *)
val r_top_plate : Diag.rule

(** ["route/parallel-positive"] *)
val r_parallel_positive : Diag.rule

(** {!Ccroute.Check.rules} plus the extensions. *)
val rules : Diag.rule list

(** [check layout] runs {!Ccroute.Check.run} plus the extensions. *)
val check : Ccroute.Layout.t -> Diag.t list
