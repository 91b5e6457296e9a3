(** Post-route verification: structural and geometric invariants of a
    routed layout.

    This is the light-weight DRC/LVS-style net of checks a generated
    layout must pass before anyone trusts its extracted metrics:
    everything inside the outline, trunks inside their channels, distinct
    tracks not colliding, every capacitor's net present, via bundles
    consistent with the parallel-wire plan.  Each check is a ["route/*"]
    rule of the shared diagnostics core; [Verify] catalogues them with
    its own layout-level routing rules.  [run] returns every finding;
    the empty list means clean. *)

(** ["route/wire-in-outline"] *)
val r_wire_in_outline : Diag.rule

(** ["route/via-in-outline"] *)
val r_via_in_outline : Diag.rule

(** ["route/trunk-in-channel"] *)
val r_trunk_in_channel : Diag.rule

(** ["route/track-separation"] *)
val r_track_separation : Diag.rule

(** ["route/net-routed"] *)
val r_net_routed : Diag.rule

(** ["route/net-coverage"] *)
val r_net_coverage : Diag.rule

(** ["route/parallel-consistency"] *)
val r_parallel_consistency : Diag.rule

(** ["route/reserved-direction"] *)
val r_reserved_direction : Diag.rule

(** Every rule {!run} can fire. *)
val rules : Diag.rule list

(** [run layout] executes every check and returns the findings in
    {!Diag.compare} order (rule id, then detail).  Each finding also
    bumps [route/check_violations_total], labelled by the check id
    without its ["route/"] prefix. *)
val run : Layout.t -> Diag.t list

(** [assert_clean layout] raises [Invalid_argument] when the layout is not
    clean; the message carries the total violation count, a per-rule
    breakdown, and the first few violations in full. *)
val assert_clean : Layout.t -> unit
