(** Rule identities for the typed whole-program pass.

    [lib/ccdeps] emits diagnostics against these; declaring them here
    keeps {!Registry.all} a single static list (and lets the allowlist
    vet ["int/"]/["arch/"] suppressions) without srclint depending on
    the typed analysis. *)

(** {2 Effect/determinism taint (["int/taint-*"])} *)

val taint_wall_clock : Diag.rule
val taint_random : Diag.rule
val taint_getenv : Diag.rule
val taint_gc : Diag.rule
val taint_print : Diag.rule

(** {2 Domain-escape race detection} *)

val domain_escape : Diag.rule

(** {2 Architecture layering (["arch/*"])} *)

val layer_violation : Diag.rule
val forbidden_dep : Diag.rule
val layer_cycle : Diag.rule
val undeclared_lib : Diag.rule

(** {2 Typed-pass bookkeeping} *)

val cmt_error : Diag.rule
val manifest_error : Diag.rule

(** Every rule above, for {!Registry.all}. *)
val rules : Diag.rule list

(** [(kind-name, rule)] pairs for the taint kinds, in reporting order. *)
val taint_families : (string * Diag.rule) list

(** [is_typed_rule_id id]: does [id] belong to the typed pass?  Used to
    keep allowlist entries for typed rules from reading as stale when
    the pass is off (no [.cmt] files around). *)
val is_typed_rule_id : string -> bool
